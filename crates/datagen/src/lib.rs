//! Synthetic LSST catalog data for the Qserv reproduction.
//!
//! The paper's 30 TB test dataset was built by "spatially replicating the
//! dataset from a recent LSST data challenge ('PT1.1')" (§6.1.2): a
//! spherical patch covering RA 358°–5°, decl −7°–+7°, replicated over the
//! sky with a *non-linear transformation of right ascension as a function
//! of declination* so spatial distance and density are maintained. We have
//! no PT1.1 files (proprietary pipeline outputs), so [`generate`]
//! synthesizes a statistically similar patch — positions uniform on the
//! sphere patch, log-normal fluxes, ~41 time-series sources per object
//! (§6.2 SHV2: "each objectId ... is shared by 41 rows (on average) in
//! Source") — and [`duplicate`] implements the paper's replication
//! transform.
//!
//! [`estimate`] reproduces Table 1 (the final-data-release sizing) from
//! row counts × row widths, the same accounting the paper uses.

pub mod duplicate;
pub mod estimate;
pub mod generate;

pub use duplicate::SkyDuplicator;
pub use estimate::{lsst_final_release, TableEstimate};
pub use generate::{CatalogConfig, ObjectRow, ObjectStream, Patch, RefObjectRow, SourceRow};
