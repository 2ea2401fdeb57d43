//! # maybms-worldset
//!
//! The *explicit* possible-worlds engine. A world-set is stored as a list of
//! ordinary databases with probabilities — exactly the semantics that
//! world-set decompositions compress. This crate serves two roles in the
//! reproduction:
//!
//! 1. **Correctness oracle.** Every WSD algebra operation in `maybms-core`
//!    must commute with world enumeration: running a query on the
//!    decomposition and then enumerating worlds must equal enumerating
//!    worlds and running the query in each. Both sides read the same
//!    [`maybms_relational::Query`] tree — [`eval::eval_in_all_worlds`]
//!    takes the engine's own query, and nothing converts between them.
//!    The property tests pin this.
//! 2. **Baseline.** The paper's E3 experiment compares query evaluation on
//!    the decomposition against "conventional query processing (that is, of
//!    processing a single world using standard database techniques)" — the
//!    single-world path lives here.
//!
//! It also defines [`orset::OrSetRelation`], the attribute-level or-set
//! relations used to inject noise into the census data (E1), and utilities
//! for possible/certain answers and tuple confidence computed by brute
//! force.

#![forbid(unsafe_code)]

pub mod enumerate;
pub mod eval;
pub mod orset;
pub mod world;

pub use enumerate::EnumerateOptions;
pub use orset::{OrSetCell, OrSetRelation};
pub use world::{World, WorldSet};
