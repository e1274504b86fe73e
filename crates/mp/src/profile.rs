//! Kernel profiles: which limb, polynomial and division kernels a solve
//! dispatches to.
//!
//! Both profiles compute exactly the same results (the kernel-level
//! differential suites — `kernel_diff`, `div_diff`, `polymul_diff`,
//! `parmul_diff`, `inplace_diff` — hold every fast kernel bit-for-bit
//! equal to its quadratic twin):
//!
//! * [`Profile::Paper`] (default) — schoolbook `Int × Int`
//!   ([`crate::nat::mul`]), the schoolbook `Poly × Poly` double loop, and
//!   Knuth's Algorithm D ([`crate::nat::div`]). The paper's Section 4
//!   analysis models the UNIX `mp` package, whose kernels are quadratic,
//!   so wall-clock timings reported alongside the paper's (Table 2,
//!   Figure 8) use this profile.
//! * [`Profile::Fast`] — every size-dispatched kernel: Karatsuba
//!   ([`crate::nat::kmul`]), Kronecker substitution for `Poly × Poly`,
//!   Newton-reciprocal and 2-adic exact division
//!   ([`crate::nat::newton_div`], [`crate::ExactDivisor`]), each above its
//!   calibrated crossover, plus fork-join splitting of large products
//!   ([`crate::nat::parmul`]) whenever the ambient pool scope has idle
//!   workers.
//!
//! A profile rides on a [`crate::SolveCtx`], so concurrent solves can run
//! different profiles; a thread with no context installed dispatches as
//! `Paper`. Switching profiles never changes what [`crate::metrics`]
//! records: every `Int` multiplication and division is charged its model
//! cost *before* any kernel runs, so predicted-vs-observed figures (2–7,
//! Table 1) are profile-invariant.

use std::fmt;

/// Which kernel family a solve dispatches to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Quadratic kernels — paper-faithful timing.
    #[default]
    Paper,
    /// Every size-dispatched fast kernel.
    Fast,
}

impl Profile {
    /// Both profiles, `Paper` first.
    pub const ALL: [Profile; 2] = [Profile::Paper, Profile::Fast];

    /// Parses a profile name. Accepts exactly `paper` or `fast`; anything
    /// else (including other capitalizations) is an error naming the
    /// accepted values, so a mistyped selection never silently runs the
    /// wrong kernels.
    pub fn parse(s: &str) -> Result<Profile, String> {
        match s {
            "paper" => Ok(Profile::Paper),
            "fast" => Ok(Profile::Fast),
            other => Err(format!(
                "unknown profile {other:?}: expected \"paper\" or \"fast\""
            )),
        }
    }

    /// The profile's name, as accepted by [`Profile::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::Fast => "fast",
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_exactly_the_two_names() {
        for p in Profile::ALL {
            assert_eq!(Profile::parse(p.name()), Ok(p));
        }
        for bad in [
            "",
            "Fast",
            "FAST",
            "Paper",
            " fast",
            "schoolbook",
            "newton",
            "on",
        ] {
            let err = Profile::parse(bad).unwrap_err();
            assert!(err.contains("\"paper\" or \"fast\""), "{bad:?}: {err}");
        }
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Profile::default(), Profile::Paper);
        assert_eq!(Profile::Fast.to_string(), "fast");
    }
}
