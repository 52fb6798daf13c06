//! End-to-end benchmark of the `focus-cli` binary, with a traced
//! in-process run that attributes its time to the workspace crates.
//! See `README.md` in this directory for workloads, metrics and usage.

pub mod cli;
pub mod inputs;
pub mod pass;
pub mod run;
pub mod trace;
