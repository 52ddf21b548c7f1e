//! Two-level spherical partitioning for the Qserv reproduction.
//!
//! Paper §4.4 divides the sky into coarse partitions ("chunks") for query
//! fragmentation and fine partitions ("subchunks") for spatial joins, plus a
//! precomputed *overlap* margin so near-neighbour joins never need data from
//! another node. §5.2 and §6.1.2 pin down the concrete scheme: declination
//! *stripes* of equal height, each split into *sub-stripes*; within a stripe,
//! chunks are right-ascension segments sized for roughly equal area (the
//! paper's test used 85 stripes × 12 sub-stripes → 8983 chunks of ≈4.5 deg²).
//!
//! This crate provides:
//! * [`Chunker`] — the stripe/sub-stripe partition map: point → (chunk,
//!   subchunk), chunk/subchunk bounds, conservative chunk selection for a
//!   spatial restriction, and overlap membership tests.
//! * [`placement`] — the chunk → replica placement model: load-time
//!   layout strategies, epoch-stamped maps and edits, and the pure
//!   repair / rebalance / drain planning steps the master and the
//!   simulator both drive.
//! * [`index`] — the objectId secondary index (paper §5.5): objectId →
//!   (chunkId, subChunkId), used by the frontend to turn point queries into
//!   single-chunk dispatches.
//! * [`htm_chunker`] — the §7.5 alternative: two-level partitioning on the
//!   hierarchical triangular mesh, with hierarchical integer partition ids.

pub mod chunker;
pub mod htm_chunker;
pub mod index;
pub mod placement;

pub use chunker::{ChunkLocation, Chunker, ChunkerError};
pub use htm_chunker::HtmChunker;
pub use index::SecondaryIndex;
pub use placement::PlacementMap;
