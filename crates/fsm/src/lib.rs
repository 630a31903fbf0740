//! # fsm — finite-state-machine substrate for the NOVA reproduction
//!
//! Everything NOVA needs around the machines themselves:
//!
//! * the [`Fsm`] state-transition-table model and KISS2 parsing/printing
//!   ([`machine`]),
//! * construction of the multiple-valued **symbolic cover** whose
//!   minimization yields input constraints ([`symbolic`]),
//! * application of a state [`Encoding`] to produce a binary PLA cover with
//!   the right don't-care structure ([`encode`]),
//! * the paper's **PLA area model** ([`area`]),
//! * behavioural **simulation** of both the symbolic machine and encoded
//!   implementations for equivalence checking ([`simulate`]),
//! * the embedded **benchmark suite** of Tables I–V ([`benchmarks`]), the
//!   seeded synthetic generator backing its stand-ins, and the
//!   shape-controlled **scale corpus** generator ([`generator::ScaleSpec`])
//!   behind `nova bench --synthetic`,
//! * the canonical seeded PRNG shared by every deterministic component
//!   ([`rng`]),
//! * content-addressed machine **fingerprints** for result caching
//!   ([`fingerprint`]).
//!
//! ## Example: encode and minimize a machine
//!
//! ```
//! use fsm::{benchmarks, encode::{encode, Encoding}};
//! use espresso::minimize;
//!
//! let m = benchmarks::by_name("shiftreg").expect("embedded").fsm;
//! let enc = Encoding::new(3, (0..8).collect())?;
//! let pla = encode(&m, &enc);
//! let minimized = minimize(&pla.on, &pla.dc);
//! let area = pla.area_for(minimized.len());
//! assert!(area > 0);
//! # Ok::<(), fsm::encode::EncodingError>(())
//! ```

pub mod area;
pub mod benchmarks;
pub mod encode;
pub mod fingerprint;
pub mod generator;
pub mod machine;
pub mod minimize_states;
pub mod rng;
pub mod simulate;
pub mod symbolic;

pub use encode::{EncodedPla, Encoding};
pub use fingerprint::fingerprint;
pub use generator::ScaleSpec;
pub use machine::{Fsm, FsmError, ParseKissError, StateId, Transition, Trit};
pub use rng::SplitMix64;
pub use symbolic::{symbolic_cover, SymbolicCover};

/// The machine's available parallelism, or 1 when it cannot be queried.
/// Every `0 = one per core` worker count in the workspace resolves here.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
