//! # rr-mp — instrumented multiprecision integer arithmetic
//!
//! A from-scratch arbitrary-precision signed integer library reproducing the
//! cost model of the UNIX `mp` package used by Narendran & Tiwari (1991):
//!
//! * addition and subtraction run in time linear in the operand sizes;
//! * multiplication is **schoolbook** — quadratic — by default;
//! * division is Knuth's Algorithm D — quadratic in the operand sizes.
//!
//! Every [`Int`] multiplication and division is recorded by the
//! [`metrics`] module under the currently active [`metrics::Phase`], with
//! both an operation count and a bit cost `‖a‖·‖b‖` (the product of the
//! operand bit lengths — the paper's unit of bit complexity).
//!
//! ## Two kernel profiles, one cost model
//!
//! The paper's Section 4 analysis, and its Figures 2–7, are stated in
//! multiplication *events* and operand *bit lengths* — exactly what the
//! [`metrics`] module records, and it records them at the [`Int`] level
//! **before** any kernel runs. The kernels are therefore swappable
//! without disturbing the reproduction: a [`Profile`] selects between
//! the paper-faithful quadratic kernels ([`Profile::Paper`], the default,
//! matching the `mp` package the paper timed) and every size-dispatched
//! fast kernel ([`Profile::Fast`]: Karatsuba, Kronecker substitution,
//! Newton/2-adic division through [`ExactDivisor`], fork-join products).
//! The kernel-level differential suites hold each fast kernel
//! bit-for-bit equal to its quadratic twin; only wall-clock *seconds*
//! (Table 2, Figure 8) depend on the choice.
//!
//! ## Sessions
//!
//! The profile and metrics attribution are carried per solve by a
//! [`SolveCtx`] (see the [`session`] module): while a context is
//! installed on a thread, its profile drives kernel dispatch and its
//! private sink receives every recorded event, so concurrent solves
//! with different profiles neither corrupt each other's selection nor
//! cross-attribute counts. Code running outside any session dispatches
//! as `Paper` and records nothing.
//!
//! ## Example
//!
//! ```
//! use rr_mp::Int;
//!
//! let a = Int::from(-1234567890123456789i64);
//! let b = Int::from_str_radix("340282366920938463463374607431768211456", 10).unwrap();
//! let c = &a * &b;
//! assert_eq!((&c / &a), b);
//! assert_eq!((&c % &b), Int::zero());
//! assert_eq!(a.pow(3).to_string(),
//!     "-1881676372353657772490265749424677022198701224860897069");
//! ```

#![warn(missing_docs)]

pub mod gcd;
pub mod limb;
pub mod metrics;
pub mod nat;
pub mod profile;
pub mod scratch;
pub mod session;

mod divisor;
mod fmt;
mod int;

pub use divisor::ExactDivisor;
pub use int::{Int, Sign};
pub use metrics::{Exec, ExecSnapshot, PhaseTimes};
pub use profile::Profile;
pub use session::{active_profile, CtxGuard, SolveCtx};
