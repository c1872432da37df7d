//! # cs-dp — differential privacy substrate for Chiaroscuro
//!
//! Implements the perturbation side of the paper's Diptych:
//!
//! * the **Laplace mechanism** ([`laplace`]): `ε`-differentially-private
//!   release of aggregates by adding `Laplace(Δ/ε)` noise;
//! * **noise shares** ([`shares`]): a `Laplace(b)` variable decomposed into
//!   `n` per-participant terms, each the difference of two `Gamma(1/n, b)`
//!   draws — "A Laplace random variable can be computed by summing up n terms
//!   independently generated based on the gamma distribution" (paper §II-A).
//!   No single party ever knows the total noise;
//! * **gamma sampling** ([`gamma`]): Marsaglia-Tsang with the `α+1` boost for
//!   the sub-unit shapes that noise shares need, built on a from-scratch
//!   polar-method normal sampler;
//! * **privacy budgets** ([`budget`]): the per-iteration ε-allocation
//!   strategies behind the paper's "smart privacy budget distribution"
//!   quality heuristic (uniform, geometric-increasing, adaptive);
//! * a **privacy accountant** ([`accountant`]): sequential self-composition
//!   bookkeeping across iterations and disclosed aggregates — the paper's
//!   basic composition, "each iteration … consumes ε/k".
//!
//! ## Example
//!
//! ```
//! use cs_dp::laplace::LaplaceMechanism;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Release a count (sensitivity 1) with ε = 0.5.
//! let mech = LaplaceMechanism::new(0.5, 1.0);
//! let noisy = mech.perturb(100.0, &mut rng);
//! assert!((noisy - 100.0).abs() < 100.0); // within ~50 scale units w.h.p.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod budget;
pub mod gamma;
pub mod laplace;
pub mod shares;

pub use accountant::{AccountantError, PrivacyAccountant};
pub use budget::{BudgetPlan, BudgetStrategy};
pub use laplace::{Laplace, LaplaceMechanism};
pub use shares::NoiseShareGenerator;
