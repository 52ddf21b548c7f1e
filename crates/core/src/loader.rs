//! Cluster construction: partitioning catalog rows onto workers.
//!
//! [`ClusterBuilder`] takes synthesized catalog rows ([`ObjectRow`] /
//! [`SourceRow`]) and materializes a running cluster: per-chunk tables
//! with `chunkId`/`subChunkId` columns and per-chunk objectId indexes
//! (paper §5.5), overlap stores (§4.4), chunk placement over worker nodes
//! (round-robin), path exports on the fabric, and the
//! frontend's secondary index.
//!
//! Child-table co-location: Source rows are partitioned by *their
//! object's* position, so a time series lives in exactly the chunk its
//! object owns — "Large tables are partitioned on the same spatial
//! boundaries where possible to enable joining between them" (§5.2).

use crate::master::{Qserv, RetryPolicy};
use crate::meta::{CatalogMeta, ChunkZones, ColumnZone};
use crate::worker::Worker;
use qserv_datagen::generate::{ObjectRow, RefObjectRow, SourceRow};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_obs::clock::SharedClock;
use qserv_partition::chunker::{ChunkLocation, Chunker};
use qserv_partition::index::SecondaryIndex;
use qserv_partition::placement::PlacementMap;
use qserv_sphgeom::{LonLat, SphericalBox};
use qserv_xrd::cluster::{query_path, XrdCluster};
use qserv_xrd::fault::FaultPlan;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One table's partitioned rows, keyed by chunk id: the rows each chunk
/// owns, and the copies each chunk keeps in its overlap store (§4.4).
#[derive(Default)]
struct ChunkRows {
    owned: BTreeMap<i32, Vec<Vec<Value>>>,
    overlap: BTreeMap<i32, Vec<Vec<Value>>>,
}

impl ChunkRows {
    /// Files one row positioned at `(ra, decl)` under the chunk that owns
    /// the position and under every other chunk whose dilated bounds
    /// contain it. `row` builds the values from the owner's chunk and
    /// subchunk ids. Returns the owner's location.
    fn insert(
        &mut self,
        chunker: &Chunker,
        ra: f64,
        decl: f64,
        row: impl FnOnce(i32, i32) -> Vec<Value>,
    ) -> ChunkLocation {
        let p = LonLat::from_degrees(ra, decl);
        let loc = chunker.locate(&p);
        let values = row(loc.chunk_id, loc.subchunk_id);
        let probe = SphericalBox::from_degrees(ra, decl, ra, decl).dilated(chunker.overlap());
        for c in chunker.chunks_intersecting(&probe) {
            if c != loc.chunk_id && chunker.in_overlap(c, &p).unwrap_or(false) {
                self.overlap.entry(c).or_default().push(values.clone());
            }
        }
        self.owned.entry(loc.chunk_id).or_default().push(values);
        loc
    }
}

/// The Object chunk-table schema (a realistic subset of the PT1.1 schema:
/// the columns every evaluation query touches, plus the partitioning
/// bookkeeping columns Qserv appends).
pub fn object_schema() -> Schema {
    let mut cols = vec![
        ColumnDef::new("objectId", ColumnType::Int),
        ColumnDef::new("ra_PS", ColumnType::Float),
        ColumnDef::new("decl_PS", ColumnType::Float),
    ];
    for band in qserv_datagen::generate::BANDS {
        cols.push(ColumnDef::new(&format!("{band}Flux_PS"), ColumnType::Float));
    }
    cols.push(ColumnDef::new("uFlux_SG", ColumnType::Float));
    cols.push(ColumnDef::new("uRadius_PS", ColumnType::Float));
    cols.push(ColumnDef::new("chunkId", ColumnType::Int));
    cols.push(ColumnDef::new("subChunkId", ColumnType::Int));
    Schema::new(cols)
}

/// The Source chunk-table schema.
pub fn source_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("sourceId", ColumnType::Int),
        ColumnDef::new("objectId", ColumnType::Int),
        ColumnDef::new("ra", ColumnType::Float),
        ColumnDef::new("decl", ColumnType::Float),
        ColumnDef::new("taiMidPoint", ColumnType::Float),
        ColumnDef::new("psfFlux", ColumnType::Float),
        ColumnDef::new("psfFluxErr", ColumnType::Float),
        ColumnDef::new("chunkId", ColumnType::Int),
        ColumnDef::new("subChunkId", ColumnType::Int),
    ])
}

/// The RefObject chunk-table schema: the second catalog XMatch joins
/// against. Partitioned on (`ra`, `decl`) like any large table.
pub fn ref_object_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("refObjectId", ColumnType::Int),
        ColumnDef::new("ra", ColumnType::Float),
        ColumnDef::new("decl", ColumnType::Float),
        ColumnDef::new("mag", ColumnType::Float),
        ColumnDef::new("chunkId", ColumnType::Int),
        ColumnDef::new("subChunkId", ColumnType::Int),
    ])
}

fn ref_object_values(r: &RefObjectRow, chunk: i32, subchunk: i32) -> Vec<Value> {
    vec![
        Value::Int(r.ref_object_id),
        Value::Float(r.ra),
        Value::Float(r.decl),
        Value::Float(r.mag),
        Value::Int(chunk as i64),
        Value::Int(subchunk as i64),
    ]
}

fn object_values(o: &ObjectRow, chunk: i32, subchunk: i32) -> Vec<Value> {
    let mut row = vec![
        Value::Int(o.object_id),
        Value::Float(o.ra_ps),
        Value::Float(o.decl_ps),
    ];
    for f in o.flux_ps {
        row.push(Value::Float(f));
    }
    row.push(Value::Float(o.u_flux_sg));
    row.push(Value::Float(o.u_radius_ps));
    row.push(Value::Int(chunk as i64));
    row.push(Value::Int(subchunk as i64));
    row
}

fn source_values(s: &SourceRow, chunk: i32, subchunk: i32) -> Vec<Value> {
    vec![
        Value::Int(s.source_id),
        Value::Int(s.object_id),
        Value::Float(s.ra),
        Value::Float(s.decl),
        Value::Float(s.tai_mid_point),
        Value::Float(s.psf_flux),
        Value::Float(s.psf_flux_err),
        Value::Int(chunk as i64),
        Value::Int(subchunk as i64),
    ]
}

/// Builds a loaded, query-ready cluster.
pub struct ClusterBuilder {
    chunker: Chunker,
    meta: CatalogMeta,
    nodes: usize,
    standby_nodes: usize,
    replication: usize,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    clock: Option<SharedClock>,
    ref_objects: Vec<RefObjectRow>,
    storage_dir: Option<std::path::PathBuf>,
    storage_page_rows: usize,
}

impl ClusterBuilder {
    /// Defaults: the small test chunker (18 stripes × 10 sub-stripes,
    /// 0.1° overlap), the LSST catalog layout, no replication.
    pub fn new(nodes: usize) -> ClusterBuilder {
        assert!(nodes > 0, "a cluster needs at least one node");
        ClusterBuilder {
            chunker: Chunker::test_small(),
            meta: CatalogMeta::lsst(),
            nodes,
            standby_nodes: 0,
            replication: 1,
            faults: None,
            retry: RetryPolicy::default(),
            clock: None,
            ref_objects: Vec::new(),
            storage_dir: None,
            storage_page_rows: qserv_engine::DEFAULT_PAGE_ROWS,
        }
    }

    /// Stores owned partitioned chunk tables as on-disk columnar chunk
    /// files under `dir` instead of in worker memory: workers attach the
    /// files cold and decode pages lazily through the residency cache,
    /// with zone-map page elision on scans. Replicas of a chunk share one
    /// file. Overlap stores and on-demand subchunk tables stay in-memory.
    pub fn storage_dir(mut self, dir: impl Into<std::path::PathBuf>) -> ClusterBuilder {
        self.storage_dir = Some(dir.into());
        self
    }

    /// Rows per page stripe in the chunk files [`Self::storage_dir`]
    /// writes. The default ([`qserv_engine::DEFAULT_PAGE_ROWS`]) suits
    /// production-sized chunks; tests shrink it so small chunks still
    /// span several row groups and exercise zone-map page elision.
    pub fn storage_page_rows(mut self, rows: usize) -> ClusterBuilder {
        assert!(rows > 0, "a page stores at least one row");
        self.storage_page_rows = rows;
        self
    }

    /// Loads a second catalog (the XMatch reference survey) alongside
    /// Object/Source. RefObject rows are partitioned by their own
    /// position; chunks populated only by reference objects still get
    /// (empty) Object/Source tables so every exported chunk is fully
    /// queryable.
    pub fn ref_objects(mut self, refs: &[RefObjectRow]) -> ClusterBuilder {
        self.ref_objects = refs.to_vec();
        self
    }

    /// Uses a specific partitioning.
    pub fn chunker(mut self, chunker: Chunker) -> ClusterBuilder {
        self.chunker = chunker;
        self
    }

    /// Provisions `extra` standby nodes beyond the initial placement:
    /// their data servers and workers join the fabric empty (no chunks,
    /// no exports) and become targets for
    /// [`Qserv::join_node`](crate::master::Qserv) and rebalancing.
    pub fn standby_nodes(mut self, extra: usize) -> ClusterBuilder {
        self.standby_nodes = extra;
        self
    }

    /// Sets the chunk replication factor.
    pub fn replication(mut self, replication: usize) -> ClusterBuilder {
        self.replication = replication;
        self
    }

    /// Arms the fabric with a fault plan (chaos testing). The plan's
    /// rules fire on the built cluster's file transactions; its counters
    /// are reachable via `qserv.cluster().faults()`.
    pub fn fault_plan(mut self, plan: FaultPlan) -> ClusterBuilder {
        self.faults = Some(plan);
        self
    }

    /// Sets the master's chunk-dispatch retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> ClusterBuilder {
        self.retry = retry;
        self
    }

    /// Injects the clock the master (deadlines, backoff, trace
    /// timestamps) and the fault plan (delay faults) wait through.
    /// Pass a [`qserv_obs::VirtualClock`] to make chaos runs advance
    /// virtual time instead of sleeping.
    pub fn clock(mut self, clock: SharedClock) -> ClusterBuilder {
        self.clock = Some(clock);
        self
    }

    /// Partitions `objects` and `sources`, loads workers, and returns the
    /// running frontend.
    pub fn build(self, objects: &[ObjectRow], sources: &[SourceRow]) -> Qserv {
        let chunker = &self.chunker;
        // --- Partition objects (owned + overlap stores) ------------------
        let mut obj = ChunkRows::default();
        let mut obj_loc: HashMap<i64, (f64, f64)> = HashMap::new();
        let mut secondary = SecondaryIndex::new();
        for o in objects {
            let loc = obj.insert(chunker, o.ra_ps, o.decl_ps, |chunk, sub| {
                object_values(o, chunk, sub)
            });
            secondary.insert(o.object_id, loc);
            obj_loc.insert(o.object_id, (o.ra_ps, o.decl_ps));
        }

        // --- Partition sources, co-located with their objects ------------
        let mut src = ChunkRows::default();
        for s in sources {
            let (ra, decl) = obj_loc.get(&s.object_id).copied().unwrap_or((s.ra, s.decl));
            src.insert(chunker, ra, decl, |chunk, sub| source_values(s, chunk, sub));
        }

        // --- Partition the reference catalog (XMatch side B) -------------
        let mut refs = ChunkRows::default();
        for r in &self.ref_objects {
            refs.insert(chunker, r.ra, r.decl, |chunk, sub| {
                ref_object_values(r, chunk, sub)
            });
        }

        // --- Placement over the populated chunk set ----------------------
        let mut chunks: Vec<i32> = obj
            .owned
            .keys()
            .chain(src.owned.keys())
            .chain(obj.overlap.keys())
            .chain(src.overlap.keys())
            .chain(refs.owned.keys())
            .chain(refs.overlap.keys())
            .copied()
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        let placement = PlacementMap::initial(&chunks, self.nodes, self.replication);

        // --- Materialize workers over the fabric -------------------------
        // Standby nodes get data servers and plugin-bearing workers like
        // everyone else, but hold no chunks and export no paths until a
        // join/rebalance copies replicas onto them.
        let fleet = self.nodes + self.standby_nodes;
        let cluster = XrdCluster::with_servers_and_faults(
            fleet,
            self.faults.unwrap_or_else(|| FaultPlan::new(0)),
        );
        let mut workers: Vec<Arc<Worker>> = Vec::with_capacity(fleet);
        for node in 0..fleet {
            let w = Arc::new(Worker::new(node, chunker.clone(), self.meta.clone()));
            cluster.servers()[node].install_plugin(Arc::clone(&w) as Arc<dyn qserv_xrd::OfsPlugin>);
            workers.push(w);
        }

        let build_table = |schema: Schema, rows: Option<&Vec<Vec<Value>>>, index: bool| -> Table {
            let mut t = Table::new(schema);
            if let Some(rows) = rows {
                for r in rows {
                    t.push_row(r.clone()).expect("loader rows match schema");
                }
            }
            if index {
                t.build_index("objectId")
                    .expect("objectId is an int column");
            }
            t
        };

        if let Some(dir) = &self.storage_dir {
            std::fs::create_dir_all(dir).expect("storage dir is creatable");
        }
        let mut zones = ChunkZones::new();
        // Planner statistics, collected at write time from the same
        // owned tables the zone maps come from: per-chunk row counts,
        // per-column valid counts, and distinct values — exact for
        // integer columns (global value sets merged across chunks, so
        // uniqueness of e.g. objectId is *provable*), summed per-chunk
        // (an estimate) for floats.
        let mut stats = crate::meta::TableStats::new();
        let mut col_acc: std::collections::BTreeMap<(String, String), (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut int_sets: std::collections::BTreeMap<
            (String, String),
            std::collections::HashSet<i64>,
        > = std::collections::BTreeMap::new();
        for &chunk in &chunks {
            // Owned tables are built once per chunk; replicas share them
            // (by clone in-memory, by file path on disk).
            let owned: [(&str, Table); 3] = [
                (
                    "Object",
                    build_table(object_schema(), obj.owned.get(&chunk), true),
                ),
                (
                    "Source",
                    build_table(source_schema(), src.owned.get(&chunk), true),
                ),
                (
                    "RefObject",
                    build_table(ref_object_schema(), refs.owned.get(&chunk), false),
                ),
            ];
            // Per-chunk zone maps come from the same owned rows in both
            // storage modes, so the master's chunk elision is identical
            // with or without on-disk chunk files.
            for (name, t) in &owned {
                stats.record_chunk_rows(name, chunk as i64, t.num_rows() as u64);
                for s in qserv_engine::storage::table_column_stats(t) {
                    zones.register(
                        name,
                        chunk as i64,
                        &s.name,
                        ColumnZone {
                            valid: s.valid,
                            min: s.min,
                            max: s.max,
                        },
                    );
                    let acc = col_acc
                        .entry((name.to_string(), s.name.clone()))
                        .or_insert((0, 0));
                    acc.0 += s.valid;
                    acc.1 += s.distinct;
                }
                // Exact global distinct for integer columns: merge the
                // chunk's values into one set per (table, column).
                for (ci, def) in t.schema().columns().iter().enumerate() {
                    if let qserv_engine::table::ColumnSlice::Int(vals) = t.column_slice(ci) {
                        let nulls = t.null_mask(ci);
                        let set = int_sets
                            .entry((name.to_string(), def.name.clone()))
                            .or_default();
                        for (&v, &n) in vals.iter().zip(nulls) {
                            if !n {
                                set.insert(v);
                            }
                        }
                    }
                }
            }
            let paths: Option<Vec<std::path::PathBuf>> = self.storage_dir.as_ref().map(|dir| {
                owned
                    .iter()
                    .map(|(name, t)| {
                        let path = dir.join(format!("{name}_{chunk}.qchunk"));
                        qserv_engine::write_table(&path, t, self.storage_page_rows)
                            .expect("chunk file is writable");
                        path
                    })
                    .collect()
            });
            let overlaps = |name: &str| -> Table {
                match name {
                    "Object" => build_table(object_schema(), obj.overlap.get(&chunk), false),
                    "Source" => build_table(source_schema(), src.overlap.get(&chunk), false),
                    _ => build_table(ref_object_schema(), refs.overlap.get(&chunk), false),
                }
            };
            for &node in placement.nodes_of(chunk).expect("chunk was placed") {
                let worker = &workers[node];
                match &paths {
                    Some(paths) => {
                        for ((name, _), path) in owned.iter().zip(paths) {
                            worker
                                .install_chunk_file(name, chunk, path, overlaps(name))
                                .expect("chunk file attaches");
                        }
                    }
                    None => {
                        for (name, t) in &owned {
                            worker.install_chunk(name, chunk, t.clone(), overlaps(name));
                        }
                    }
                }
                cluster.servers()[node].export(&query_path(chunk));
            }
        }

        for ((table, column), (valid, distinct_sum)) in col_acc {
            let (distinct, exact) = match int_sets.get(&(table.clone(), column.clone())) {
                Some(set) => (set.len() as u64, true),
                None => (distinct_sum.min(valid), false),
            };
            stats.set_column(
                &table,
                &column,
                crate::meta::ColumnStat {
                    valid,
                    distinct,
                    exact_distinct: exact,
                },
            );
        }
        let mut qserv = Qserv::assemble(
            cluster,
            self.chunker,
            self.meta,
            placement,
            secondary,
            workers,
            zones,
            stats,
        );
        qserv.retry = self.retry;
        qserv.storage_dir = self.storage_dir;
        if let Some(clock) = self.clock {
            qserv.set_clock(clock);
        }
        qserv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_datagen::generate::{CatalogConfig, Patch};

    fn patch() -> Patch {
        Patch::generate(&CatalogConfig::small(300, 55))
    }

    #[test]
    fn every_object_stored_exactly_once_as_owned() {
        let p = patch();
        let q = ClusterBuilder::new(3).build(&p.objects, &p.sources);
        let total = q
            .query("SELECT COUNT(*) FROM Object")
            .expect("count runs")
            .scalar()
            .and_then(|v| v.as_i64())
            .expect("integer count");
        assert_eq!(total as usize, p.objects.len());
    }

    #[test]
    fn border_objects_populate_neighbor_overlap_stores() {
        // Craft an object just inside a chunk's eastern border: it must
        // appear in the eastern neighbour's overlap store.
        let chunker = Chunker::test_small();
        let bounds = chunker
            .chunk_bounds(chunker.locate(&LonLat::from_degrees(15.0, 5.0)).chunk_id)
            .expect("valid chunk");
        let edge_ra = bounds.lon_max_deg() - 0.01; // within 0.1° overlap
        let o = ObjectRow {
            object_id: 1,
            ra_ps: edge_ra,
            decl_ps: 5.0,
            flux_ps: [1.0; 6],
            u_flux_sg: 1.0,
            u_radius_ps: 0.0,
        };
        let q = ClusterBuilder::new(1).build(&[o], &[]);
        let worker = &q.workers()[0];
        let names = worker.table_names();
        // Owned row in its own chunk…
        let own = chunker.locate(&LonLat::from_degrees(edge_ra, 5.0)).chunk_id;
        assert!(names.contains(&format!("Object_{own}")));
        // …and a copy in the neighbouring chunk's overlap store.
        let neighbor = chunker
            .locate(&LonLat::from_degrees(bounds.lon_max_deg() + 0.01, 5.0))
            .chunk_id;
        let overlap_rows = {
            // The overlap table exists and carries exactly this row.
            let msg = format!(
                "-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.ObjectUnion_{neighbor} AS o;"
            );
            worker
                .execute_message(neighbor, &msg)
                .expect("union over neighbor")
                .get_by_name(0, "c")
                .and_then(|v| v.as_i64())
                .expect("count")
        };
        assert_eq!(
            overlap_rows, 1,
            "border row must be in the neighbour's overlap"
        );
    }

    #[test]
    fn interior_objects_do_not_leak_into_overlap_stores() {
        // An object at a chunk center is nobody's overlap row.
        let o = ObjectRow {
            object_id: 1,
            ra_ps: 15.0,
            decl_ps: 5.0,
            flux_ps: [1.0; 6],
            u_flux_sg: 1.0,
            u_radius_ps: 0.0,
        };
        let q = ClusterBuilder::new(1).build(&[o], &[]);
        let chunker = Chunker::test_small();
        let own = chunker.locate(&LonLat::from_degrees(15.0, 5.0)).chunk_id;
        // Only the owned chunk was materialized (placement covers
        // populated chunks only), and its overlap store is empty.
        let worker = &q.workers()[0];
        let msg = format!("-- SUBCHUNKS:\nSELECT COUNT(*) AS c FROM LSST.ObjectUnion_{own} AS o;");
        let union_rows = worker
            .execute_message(own, &msg)
            .expect("union executes")
            .get_by_name(0, "c")
            .and_then(|v| v.as_i64())
            .expect("count");
        assert_eq!(union_rows, 1, "union = owned row only, no overlap copies");
    }

    #[test]
    fn sources_colocate_with_their_objects() {
        let p = patch();
        let q = ClusterBuilder::new(4).build(&p.objects, &p.sources);
        let chunker = q.chunker();
        // For a sample of sources: the worker holding the object's chunk
        // must answer the per-object Source query entirely locally.
        for s in p.sources.iter().step_by(97) {
            let o = &p.objects[(s.object_id - 1) as usize];
            let loc = chunker.locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps));
            let (r, stats) = q
                .query_with_stats(&format!(
                    "SELECT sourceId FROM Source WHERE objectId = {}",
                    s.object_id
                ))
                .expect("time series");
            assert_eq!(stats.chunks_dispatched, 1);
            assert!(
                r.rows
                    .iter()
                    .any(|row| row[0].as_i64() == Some(s.source_id)),
                "source {} missing from chunk {}",
                s.source_id,
                loc.chunk_id
            );
        }
    }

    #[test]
    fn schemas_match_datagen_rows() {
        assert!(object_schema().index_of("objectId").is_some());
        assert!(object_schema().index_of("yFlux_PS").is_some());
        assert!(object_schema().index_of("subChunkId").is_some());
        assert_eq!(object_schema().len(), 3 + 6 + 2 + 2);
        assert_eq!(source_schema().len(), 9);
        // A generated row must fit the schema.
        let p = patch();
        let o = &p.objects[0];
        assert_eq!(object_values(o, 1, 2).len(), object_schema().len());
        let s = &p.sources[0];
        assert_eq!(source_values(s, 1, 2).len(), source_schema().len());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        ClusterBuilder::new(0);
    }
}
