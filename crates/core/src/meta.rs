//! Catalog metadata: the frontend's knowledge about tables.
//!
//! The frontend must know, per table: is it spatially partitioned (and on
//! which position columns), is it small and replicated to every worker
//! instead, and does it carry the secondary-indexed column (paper §5.3
//! "Detect database and table references — Not all tables are
//! partitioned"; §5.5 objectId indexing).

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Partitioning info for one spatially-sharded table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Longitude (right ascension) column used for sharding.
    pub lon_col: String,
    /// Latitude (declination) column used for sharding.
    pub lat_col: String,
}

/// How a table is stored across the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableDistribution {
    /// Sharded into chunk tables `T_CC` with an overlap store.
    Partitioned(PartitionInfo),
    /// Fully replicated on every worker under its own name.
    Replicated,
}

/// Per-table metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMeta {
    /// Distribution scheme.
    pub distribution: TableDistribution,
    /// Column covered by the frontend's secondary index, when any
    /// (always `objectId` in the paper).
    pub index_col: Option<String>,
}

/// The frontend's table catalog.
#[derive(Clone, Debug, Default)]
pub struct CatalogMeta {
    database: String,
    tables: BTreeMap<String, TableMeta>,
}

impl CatalogMeta {
    /// An empty catalog for database `database` (the paper's is `LSST`).
    pub fn new(database: &str) -> CatalogMeta {
        CatalogMeta {
            database: database.to_string(),
            tables: BTreeMap::new(),
        }
    }

    /// The LSST catalog layout used throughout the paper: `Object`
    /// partitioned on (`ra_PS`, `decl_PS`) with the objectId index,
    /// `Source` partitioned on (`ra`, `decl`) with objectId indexed, a
    /// small replicated `Filter` table, and a second partitioned
    /// `RefObject` catalog (an external reference survey) for
    /// cross-catalog XMatch. `RefObject` carries no secondary index — its
    /// `refObjectId` values are not in the frontend's objectId index, so
    /// routing must stay purely spatial.
    pub fn lsst() -> CatalogMeta {
        let mut m = CatalogMeta::new("LSST");
        m.add_partitioned("Object", "ra_PS", "decl_PS", Some("objectId"));
        m.add_partitioned("Source", "ra", "decl", Some("objectId"));
        m.add_partitioned("RefObject", "ra", "decl", None);
        m.add_replicated("Filter");
        m
    }

    /// The default database name queries run against.
    pub fn database(&self) -> &str {
        &self.database
    }

    /// Registers a partitioned table.
    pub fn add_partitioned(
        &mut self,
        table: &str,
        lon_col: &str,
        lat_col: &str,
        index_col: Option<&str>,
    ) {
        self.tables.insert(
            table.to_string(),
            TableMeta {
                distribution: TableDistribution::Partitioned(PartitionInfo {
                    lon_col: lon_col.to_string(),
                    lat_col: lat_col.to_string(),
                }),
                index_col: index_col.map(str::to_string),
            },
        );
    }

    /// Registers a replicated table.
    pub fn add_replicated(&mut self, table: &str) {
        self.tables.insert(
            table.to_string(),
            TableMeta {
                distribution: TableDistribution::Replicated,
                index_col: None,
            },
        );
    }

    /// Metadata for `table`, when known.
    pub fn table(&self, table: &str) -> Option<&TableMeta> {
        self.tables.get(table)
    }

    /// True when `table` is known and partitioned.
    pub fn is_partitioned(&self, table: &str) -> bool {
        matches!(
            self.table(table),
            Some(TableMeta {
                distribution: TableDistribution::Partitioned(_),
                ..
            })
        )
    }

    /// Partitioning info for `table`, when partitioned.
    pub fn partition_info(&self, table: &str) -> Option<&PartitionInfo> {
        match self.table(table) {
            Some(TableMeta {
                distribution: TableDistribution::Partitioned(p),
                ..
            }) => Some(p),
            _ => None,
        }
    }

    /// All known table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

/// Zone summary for one numeric column of one chunk: min/max over the
/// valid (non-NULL, non-NaN) values, as `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColumnZone {
    /// Count of valid values in the chunk.
    pub valid: u64,
    /// Minimum valid value (`+∞` when `valid == 0`).
    pub min: f64,
    /// Maximum valid value (`−∞` when `valid == 0`).
    pub max: f64,
}

impl ColumnZone {
    /// True when every row of the chunk fails a `[lo, hi]` restriction on
    /// this column. Conservative: boundary equality keeps the chunk (the
    /// registered bounds went through an `as f64` conversion for integer
    /// columns, which is monotone but lossy at the extremes, so only
    /// strict inequality is trusted). A chunk with no valid value fails
    /// any restriction — NULL and NaN rows never satisfy a comparison.
    pub fn excluded_by(&self, lo: f64, hi: f64) -> bool {
        self.valid == 0 || self.max < lo || self.min > hi
    }
}

/// Per-chunk zone maps registered at load time: table → column → chunk
/// → zone. The master consults these to elide whole chunks before
/// dispatch — the chunk-level analogue of the worker's per-page zone
/// maps. Keyed so that a statement resolves a `&str` table and column
/// once, without allocating, and then probes only chunk ids.
#[derive(Clone, Debug, Default)]
pub struct ChunkZones {
    zones: BTreeMap<String, BTreeMap<String, HashMap<i64, ColumnZone>>>,
}

impl ChunkZones {
    /// An empty registry.
    pub fn new() -> ChunkZones {
        ChunkZones::default()
    }

    /// Registers (or merges, widening) the zone of one column of one
    /// chunk. Merging lets replicated loads and overlap rows fold in
    /// safely — bounds only ever widen.
    pub fn register(&mut self, table: &str, chunk: i64, column: &str, zone: ColumnZone) {
        self.zones
            .entry(table.to_string())
            .or_default()
            .entry(column.to_string())
            .or_default()
            .entry(chunk)
            .and_modify(|z| {
                z.valid += zone.valid;
                z.min = z.min.min(zone.min);
                z.max = z.max.max(zone.max);
            })
            .or_insert(zone);
    }

    /// The zones of `column` in `table`, by chunk, when registered.
    pub fn column_zones(&self, table: &str, column: &str) -> Option<&HashMap<i64, ColumnZone>> {
        self.zones.get(table)?.get(column)
    }

    /// Zone-map chunk elision over a whole chunk set: removes from
    /// `chunks` every chunk of `table` that a registered zone proves has
    /// no row satisfying *all* of `restrictions` (each a `column ∈ [lo,
    /// hi]` interval ANDed with the others), and returns how many it
    /// removed. Each restriction's column is resolved once; unregistered
    /// tables, chunks or columns never exclude.
    pub fn elide_chunks(
        &self,
        table: &str,
        restrictions: &[(String, f64, f64)],
        chunks: &mut Vec<i32>,
    ) -> usize {
        let resolved: Vec<(&HashMap<i64, ColumnZone>, f64, f64)> = restrictions
            .iter()
            .filter_map(|(col, lo, hi)| Some((self.column_zones(table, col)?, *lo, *hi)))
            .collect();
        let before = chunks.len();
        chunks.retain(|&c| {
            !resolved.iter().any(|(zones, lo, hi)| {
                zones
                    .get(&i64::from(c))
                    .is_some_and(|z| z.excluded_by(*lo, *hi))
            })
        });
        before - chunks.len()
    }

    /// Number of (table, chunk) entries registered.
    pub fn len(&self) -> usize {
        self.zones
            .values()
            .map(|columns| {
                columns
                    .values()
                    .flat_map(HashMap::keys)
                    .collect::<BTreeSet<_>>()
                    .len()
            })
            .sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }
}

/// Planner statistics for one numeric column of one table, aggregated
/// over every loaded chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ColumnStat {
    /// Non-NULL, non-NaN values across all chunks.
    pub valid: u64,
    /// Distinct-value count across all chunks. Exact when
    /// `exact_distinct` (the loader merged per-chunk value sets);
    /// otherwise a sum of per-chunk distinct counts, an upper bound
    /// that double-counts values repeated across chunks.
    pub distinct: u64,
    /// Whether `distinct` is an exact global count.
    pub exact_distinct: bool,
}

/// One table's statistics: rows by chunk, the total, and column stats.
#[derive(Clone, Debug, Default)]
struct TableEntry {
    chunk_rows: HashMap<i64, u64>,
    rows: u64,
    columns: BTreeMap<String, ColumnStat>,
}

/// Table/column statistics registered at load time and consumed by
/// [`crate::planner`]: per-chunk row counts (the unit of the cost
/// model), per-table totals, and per-column distinct-value estimates
/// for selectivity. Like [`ChunkZones`], this is a plain registry the
/// loader fills and the master holds behind an `Arc`, keyed by table
/// first so that lookups by `&str` never allocate.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    tables: BTreeMap<String, TableEntry>,
}

impl TableStats {
    /// An empty registry.
    pub fn new() -> TableStats {
        TableStats::default()
    }

    /// Records the row count of one chunk of `table` (accumulating, so
    /// split loads fold in).
    pub fn record_chunk_rows(&mut self, table: &str, chunk: i64, rows: u64) {
        let entry = self.tables.entry(table.to_string()).or_default();
        *entry.chunk_rows.entry(chunk).or_insert(0) += rows;
        entry.rows += rows;
    }

    /// Sets the column statistic for `(table, column)`, replacing any
    /// previous value — the loader computes the global figure once,
    /// after all chunks are in.
    pub fn set_column(&mut self, table: &str, column: &str, stat: ColumnStat) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .columns
            .insert(column.to_string(), stat);
    }

    /// Rows loaded into each chunk of `table`, by chunk, when known.
    pub fn chunk_rows(&self, table: &str) -> Option<&HashMap<i64, u64>> {
        self.tables.get(table).map(|t| &t.chunk_rows)
    }

    /// Total rows loaded across all chunks of `table`.
    pub fn table_rows(&self, table: &str) -> u64 {
        self.tables.get(table).map_or(0, |t| t.rows)
    }

    /// The statistic for `column` of `table`, when registered.
    pub fn column(&self, table: &str, column: &str) -> Option<ColumnStat> {
        self.tables.get(table)?.columns.get(column).copied()
    }

    /// True when statistics *prove* `column` of `table` is a unique,
    /// NULL-free key over the loaded data: exact distinct count equal to
    /// both the valid count and the table's total rows. The planner only
    /// pushes ORDER BY + LIMIT below the merge on such a column — ties
    /// are impossible, so every plan yields the identical prefix.
    pub fn is_unique_key(&self, table: &str, column: &str) -> bool {
        let rows = self.table_rows(table);
        rows > 0
            && self
                .column(table, column)
                .is_some_and(|c| c.exact_distinct && c.distinct == c.valid && c.valid == rows)
    }

    /// Number of (table, chunk) row-count entries registered.
    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.chunk_rows.len()).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsst_layout() {
        let m = CatalogMeta::lsst();
        assert_eq!(m.database(), "LSST");
        assert!(m.is_partitioned("Object"));
        assert!(m.is_partitioned("Source"));
        assert!(!m.is_partitioned("Filter"));
        assert!(!m.is_partitioned("Unknown"));
        let p = m.partition_info("Object").unwrap();
        assert_eq!(p.lon_col, "ra_PS");
        assert_eq!(p.lat_col, "decl_PS");
        let s = m.partition_info("Source").unwrap();
        assert_eq!(s.lon_col, "ra");
        assert_eq!(
            m.table("Object").unwrap().index_col.as_deref(),
            Some("objectId")
        );
        assert_eq!(m.table("Filter").unwrap().index_col, None);
        assert!(m.is_partitioned("RefObject"));
        let r = m.partition_info("RefObject").unwrap();
        assert_eq!((r.lon_col.as_str(), r.lat_col.as_str()), ("ra", "decl"));
        assert_eq!(m.table("RefObject").unwrap().index_col, None);
    }

    #[test]
    fn partition_info_none_for_replicated() {
        let m = CatalogMeta::lsst();
        assert!(m.partition_info("Filter").is_none());
        assert!(m.partition_info("Nope").is_none());
    }

    fn zone(valid: u64, min: f64, max: f64) -> ColumnZone {
        ColumnZone { valid, min, max }
    }

    /// `elide_chunks` over the one-chunk set `[chunk]`: whether it went.
    fn excluded(z: &ChunkZones, table: &str, chunk: i32, r: &[(String, f64, f64)]) -> bool {
        let mut chunks = vec![chunk];
        let pruned = z.elide_chunks(table, r, &mut chunks);
        assert_eq!(pruned, 1 - chunks.len());
        chunks.is_empty()
    }

    #[test]
    fn chunk_zones_register_merge_and_exclude() {
        let mut z = ChunkZones::new();
        assert!(z.is_empty());
        z.register("Object", 7, "ra_PS", zone(10, 30.0, 40.0));
        // A second registration for the same column widens.
        z.register("Object", 7, "ra_PS", zone(5, 25.0, 35.0));
        assert_eq!(z.len(), 1);
        let zones = z.column_zones("Object", "ra_PS").unwrap();
        assert_eq!(zones.get(&7), Some(&zone(15, 25.0, 40.0)));

        let hit = vec![("ra_PS".to_string(), 20.0, 26.0)];
        let miss = vec![("ra_PS".to_string(), 50.0, 60.0)];
        assert!(!excluded(&z, "Object", 7, &hit));
        assert!(excluded(&z, "Object", 7, &miss));
        // Boundary equality keeps the chunk (conservative).
        let edge = vec![("ra_PS".to_string(), 40.0, 60.0)];
        assert!(!excluded(&z, "Object", 7, &edge));
    }

    #[test]
    fn elision_over_a_set_keeps_order_and_counts() {
        let mut z = ChunkZones::new();
        for (chunk, lo) in [(1, 0.0), (2, 10.0), (3, 20.0), (4, 30.0)] {
            z.register("Object", chunk, "decl_PS", zone(3, lo, lo + 5.0));
            z.register("Object", chunk, "ra_PS", zone(3, 100.0, 110.0));
        }
        // Restrictions AND: a chunk goes when any one of them excludes
        // it. Chunk 9 is unregistered and stays.
        let r = vec![
            ("decl_PS".to_string(), 8.0, 27.0),
            ("ra_PS".to_string(), 0.0, 200.0),
        ];
        let mut chunks = vec![4, 9, 3, 1, 2];
        assert_eq!(z.elide_chunks("Object", &r, &mut chunks), 2);
        assert_eq!(chunks, vec![9, 3, 2]);
        let r = vec![("ra_PS".to_string(), 0.0, 50.0)];
        assert_eq!(z.elide_chunks("Object", &r, &mut chunks), 2);
        assert_eq!(chunks, vec![9]);
        // No restriction, nothing elided.
        let mut chunks = vec![1, 2];
        assert_eq!(z.elide_chunks("Object", &[], &mut chunks), 0);
        assert_eq!(chunks, vec![1, 2]);
    }

    #[test]
    fn unknown_table_chunk_or_column_never_excludes() {
        let mut z = ChunkZones::new();
        z.register("Object", 7, "ra_PS", zone(10, 30.0, 40.0));
        let miss = vec![("ra_PS".to_string(), 50.0, 60.0)];
        assert!(!excluded(&z, "Source", 7, &miss), "unknown table");
        assert!(!excluded(&z, "Object", 8, &miss), "unknown chunk");
        let other = vec![("decl_PS".to_string(), 50.0, 60.0)];
        assert!(!excluded(&z, "Object", 7, &other), "unknown column");
        assert!(z.column_zones("Source", "ra_PS").is_none());
        assert!(z.column_zones("Object", "decl_PS").is_none());
        assert!(z.column_zones("Object", "ra_PS").unwrap().get(&8).is_none());

        let mut s = TableStats::new();
        s.record_chunk_rows("Object", 7, 10);
        s.set_column("Object", "objectId", ColumnStat::default());
        assert!(s.chunk_rows("Source").is_none());
        assert_eq!(s.chunk_rows("Object").unwrap().get(&8), None);
        assert_eq!(s.column("Object", "ra_PS"), None);
        assert_eq!(s.column("Source", "objectId"), None);
        assert_eq!(s.column("Object", "objectId"), Some(ColumnStat::default()));
    }

    #[test]
    fn chunk_zones_len_counts_table_chunk_entries() {
        let mut z = ChunkZones::new();
        // Three columns of one chunk are one entry; the same chunk id in
        // another table is another.
        for col in ["ra_PS", "decl_PS", "objectId"] {
            z.register("Object", 7, col, zone(1, 0.0, 1.0));
        }
        z.register("Source", 7, "ra", zone(1, 0.0, 1.0));
        assert_eq!(z.len(), 2);
        // A chunk whose columns differ from its neighbour's still counts
        // once.
        z.register("Object", 8, "ra_PS", zone(1, 0.0, 1.0));
        z.register("Object", 8, "zFlux_PS", zone(1, 0.0, 1.0));
        assert_eq!(z.len(), 3);
        assert!(!z.is_empty());
    }

    #[test]
    fn all_invalid_zone_excludes_any_restriction() {
        let mut z = ChunkZones::new();
        z.register(
            "Object",
            1,
            "zFlux_PS",
            zone(0, f64::INFINITY, f64::NEG_INFINITY),
        );
        let any = vec![("zFlux_PS".to_string(), f64::NEG_INFINITY, f64::INFINITY)];
        assert!(excluded(&z, "Object", 1, &any));
    }

    #[test]
    fn table_stats_accumulate_and_prove_uniqueness() {
        let mut s = TableStats::new();
        assert!(s.is_empty());
        s.record_chunk_rows("Object", 7, 10);
        s.record_chunk_rows("Object", 8, 5);
        s.record_chunk_rows("Object", 7, 2); // split load folds in
        s.record_chunk_rows("Source", 7, 4);
        let rows = s.chunk_rows("Object").unwrap();
        assert_eq!(rows.get(&7), Some(&12));
        assert_eq!(rows.get(&8), Some(&5));
        assert_eq!(rows.get(&9), None);
        assert_eq!(s.table_rows("Object"), 17);
        assert_eq!(s.table_rows("Source"), 4);
        assert_eq!(s.table_rows("RefObject"), 0);
        assert_eq!(s.len(), 3);

        s.set_column(
            "Object",
            "objectId",
            ColumnStat {
                valid: 17,
                distinct: 17,
                exact_distinct: true,
            },
        );
        assert!(s.is_unique_key("Object", "objectId"));
        // Inexact distinct never proves uniqueness, even if counts line up.
        s.set_column(
            "Object",
            "ra_PS",
            ColumnStat {
                valid: 17,
                distinct: 17,
                exact_distinct: false,
            },
        );
        assert!(!s.is_unique_key("Object", "ra_PS"));
        // NULLs (valid < rows) break uniqueness.
        s.set_column(
            "Object",
            "zFlux_PS",
            ColumnStat {
                valid: 16,
                distinct: 16,
                exact_distinct: true,
            },
        );
        assert!(!s.is_unique_key("Object", "zFlux_PS"));
        assert!(!s.is_unique_key("Object", "nope"));
        assert!(!s.is_unique_key("Empty", "x"));
    }

    #[test]
    fn column_stats_alone_register_no_chunk_rows() {
        let mut s = TableStats::new();
        s.set_column("Object", "objectId", ColumnStat::default());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.table_rows("Object"), 0);
        // A later set replaces, it does not merge.
        let stat = ColumnStat {
            valid: 3,
            distinct: 2,
            exact_distinct: true,
        };
        s.set_column("Object", "objectId", stat);
        assert_eq!(s.column("Object", "objectId"), Some(stat));
    }

    #[test]
    fn table_names_sorted() {
        let m = CatalogMeta::lsst();
        assert_eq!(
            m.table_names(),
            vec!["Filter", "Object", "RefObject", "Source"]
        );
    }
}
