//! Workload construction for the benchmark harness.
//!
//! Two kinds of benchmarks reproduce the paper's evaluation:
//!
//! 1. **Paper-scale simulated workloads** ([`workloads`]): per-query-class
//!    builders of [`qserv_sim::QueryJob`]s at the §6 testbed's full scale
//!    (8983 chunks, 1.7 B-row Object, 55 B-row Source over 150 nodes).
//!    The `figures` binary runs these through the calibrated simulator to
//!    regenerate every figure's series.
//! 2. **Real-execution fixtures** ([`fixtures`]): a laptop-sized cluster
//!    running the actual distributed pipeline, used by the correctness
//!    spot-checks inside the `figures` harness.
//!
//! ## Calibration (single source of truth)
//!
//! | constant | value | provenance |
//! |---|---|---|
//! | Object bytes/chunk | 1.824e12 / 8983 ≈ 203 MB | §6.2 HV2 quotes the exact MyISAM footprint |
//! | Source bytes/chunk | 30e12 / 8983 ≈ 3.3 GB | §6.1.2 (30 TB Source) |
//! | disk 98 MB/s, ~27 MB/s @4-way | `SimConfig::paper_cluster` | §6.2 HV2 bandwidth discussion |
//! | dispatch ≈ 2.2 ms/chunk | HV1: ~9000 chunks in 20–30 s | Figure 5, §7.1 |
//! | frontend base ≈ 3.8 s | flat ~4 s LV floor | Figures 2–4, 8–10 |
//! | SHV1 join CPU ≈ 620 s/chunk | 100 deg² ≈ 22 chunks in ~660 s, embarrassingly parallel | §6.2 SHV1 |
//! | SHV2 join cost ≈ 9000 s/chunk | 150 deg² ≈ 33 chunks in 2.1–5.3 h | §6.2 SHV2 |

pub mod fixtures;
pub mod workloads;
