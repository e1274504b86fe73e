//! # rr-poly — exact dense integer polynomial algebra
//!
//! The polynomial substrate for the Narendran–Tiwari reproduction:
//!
//! * [`Poly`] — dense polynomials with [`rr_mp::Int`] coefficients. The
//!   *recorded* multiplication model is always the classical schoolbook
//!   count, matching the paper; the executed kernel is selected per
//!   session ([`rr_mp::Profile`]): the schoolbook loop, or
//!   [`kronecker`] substitution onto one big-integer product;
//! * [`eval`] — Horner evaluation at integers and, via [`eval::ScaledPoly`],
//!   the scaled-integer evaluation of Section 4.3 (rational points `Y/2^µ`
//!   represented by the integer `Y`);
//! * [`remainder`] — the *standard remainder sequence* and quotient
//!   sequence of Section 2.1 (Collins' subresultant recurrences,
//!   Eqs 15–18), including the repeated-root extension of Section 2.3;
//! * [`sturm`] — Sturm chains and exact real-root counting (used by the
//!   sequential comparator and by tests as ground truth);
//! * [`division`] — pseudo-division and exact division;
//! * [`gcd`] — polynomial gcd via the primitive PRS;
//! * [`bounds`] — power-of-two root bounds.

#![warn(missing_docs)]

pub mod bounds;
pub mod division;
pub mod eval;
pub mod gcd;
pub mod kronecker;
pub mod remainder;
pub mod sturm;

mod poly;

pub use poly::Poly;
