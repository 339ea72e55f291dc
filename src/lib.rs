//! # smfl-suite
//!
//! Umbrella crate of the SMFL reproduction (*Matrix Factorization with
//! Landmarks for Spatial Data*, ICDE 2023). It re-exports the workspace
//! crates under one roof and hosts the runnable examples
//! (`cargo run --example quickstart`) and the cross-crate integration
//! tests (`tests/`).
//!
//! Crate map:
//!
//! - [`core`] (`smfl-core`) — the SMFL / SMF / NMF models;
//! - [`linalg`] (`smfl-linalg`) — dense + sparse linear algebra, masks,
//!   SVD;
//! - [`spatial`] (`smfl-spatial`) — kd-tree kNN, k-means, graph
//!   Laplacian;
//! - [`baselines`] (`smfl-baselines`) — the 12-method comparison suite
//!   plus repairers and clusterers;
//! - [`datasets`] (`smfl-datasets`) — synthetic spatial datasets and
//!   corruption protocols;
//! - [`eval`] (`smfl-eval`) — RMS / clustering-accuracy / route-fuel
//!   criteria;
//! - [`nn`] (`smfl-nn`) — the MLP substrate behind GAIN and CAMF.

#![warn(missing_docs)]

pub use smfl_baselines as baselines;
pub use smfl_core as core;
pub use smfl_datasets as datasets;
pub use smfl_eval as eval;
pub use smfl_linalg as linalg;
pub use smfl_nn as nn;
pub use smfl_spatial as spatial;

/// The README's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
