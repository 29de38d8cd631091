//! # bench-suite
//!
//! The experiment harness: one binary per table of the paper
//! (`table1` … `table7`, plus `ablation` and `probe`), the gated
//! bench binaries (`bench_search`, `bench_costs`, `bench_matrix`,
//! `bench_eco`, `bench_scale`, `bench_service`, `bench_recovery`),
//! and Criterion micro-benches. This library holds the shared pieces:
//! the [`gate`] module (the one `--flag value` reader, the common
//! `BENCH_*.json` shape and the one baseline check), the per-arm
//! runner (route → post-routing TPL-aware DVI → metrics), and aligned
//! table rendering with the paper's `Ave.` / `Nor.` summary rows.

#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod table;

pub use harness::{four_arms, run_arm, run_arm_observed, ArmInput, ArmMetrics, DviMode, RunArgs};
pub use table::TableBuilder;
