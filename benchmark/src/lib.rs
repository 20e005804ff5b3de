//! The pieces of the repo benchmark, as a library so that the
//! integration tests can read what the binary writes. `main.rs` is the
//! command line; see `README.md` for the design.

pub mod harness;
pub mod json;
pub mod kernels;
pub mod pass;
pub mod run;
pub mod stats;
pub mod sys;
pub mod workloads;
