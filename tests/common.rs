//! Shared fixtures for the integration tests: a synthesized PT1.1-style
//! patch, a loaded cluster, and a monolithic single-engine reference
//! database for distributed-vs-local equivalence checks.
//!
//! Each test target compiles its own copy, so helpers unused by a given
//! target are expected.
#![allow(dead_code)]

use qserv::loader::{object_schema, source_schema, ClusterBuilder};
use qserv::{Chunker, Qserv};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_engine::db::Database;
use qserv_engine::exec::ResultTable;
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_sphgeom::LonLat;

/// Synthesizes a small deterministic patch.
pub fn small_patch(objects: usize, seed: u64) -> Patch {
    Patch::generate(&CatalogConfig::small(objects, seed))
}

/// Builds a running cluster over `nodes` nodes from a patch.
pub fn cluster_from(patch: &Patch, nodes: usize) -> Qserv {
    ClusterBuilder::new(nodes).build(&patch.objects, &patch.sources)
}

/// Builds a *monolithic* reference database: the same rows as one
/// un-partitioned `Object`/`Source` pair on a single engine, with the
/// same chunkId/subChunkId bookkeeping columns the loader adds.
pub fn monolithic_db(patch: &Patch) -> Database {
    let chunker = Chunker::test_small();
    let mut object = Table::new(object_schema());
    for o in &patch.objects {
        let loc = chunker.locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps));
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
        row.push(Value::Int(loc.chunk_id as i64));
        row.push(Value::Int(loc.subchunk_id as i64));
        object.push_row(row).expect("schema matches");
    }
    object.build_index("objectId").expect("objectId indexes");

    let mut source = Table::new(source_schema());
    for s in &patch.sources {
        // Child rows co-locate with their object, as the loader does.
        let o = &patch.objects[(s.object_id - 1) as usize];
        let loc = chunker.locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps));
        source
            .push_row(vec![
                Value::Int(s.source_id),
                Value::Int(s.object_id),
                Value::Float(s.ra),
                Value::Float(s.decl),
                Value::Float(s.tai_mid_point),
                Value::Float(s.psf_flux),
                Value::Float(s.psf_flux_err),
                Value::Int(loc.chunk_id as i64),
                Value::Int(loc.subchunk_id as i64),
            ])
            .expect("schema matches");
    }
    source.build_index("objectId").expect("objectId indexes");

    let mut db = Database::new();
    db.create_table("Object", object);
    db.create_table("Source", source);
    db
}

/// Sorts result rows lexicographically for order-insensitive comparison.
pub fn sorted_rows(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = rows.to_vec();
    out.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    out
}

/// Compares two numeric values within a relative tolerance (distributed
/// float summation reassociates, so exact equality is too strict for
/// SUM/AVG).
pub fn approx_eq(a: &Value, b: &Value, rel: f64) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(x), Some(y)) => {
                let scale = x.abs().max(y.abs()).max(1e-12);
                (x - y).abs() / scale <= rel
            }
            _ => x == y,
        },
    }
}

/// Asserts a distributed result equals the single-engine result for
/// `sql`: order-insensitively unless the query orders, approximately
/// (1e-9 relative) for float aggregates.
pub fn assert_matches_local(sql: &str, distributed: &ResultTable, local: &ResultTable) {
    assert_eq!(
        distributed.columns.len(),
        local.columns.len(),
        "column arity differs for {sql}"
    );
    assert_eq!(
        distributed.num_rows(),
        local.num_rows(),
        "row count differs for {sql}: distributed {} vs local {}",
        distributed.num_rows(),
        local.num_rows()
    );
    let ordered = sql.to_ascii_uppercase().contains("ORDER BY");
    let (d_rows, l_rows) = if ordered {
        (distributed.rows.clone(), local.rows.clone())
    } else {
        (sorted_rows(&distributed.rows), sorted_rows(&local.rows))
    };
    for (i, (d, l)) in d_rows.iter().zip(&l_rows).enumerate() {
        for (j, (dv, lv)) in d.iter().zip(l).enumerate() {
            assert!(
                approx_eq(dv, lv, 1e-9),
                "{sql}: row {i} col {j} differs: {dv:?} vs {lv:?}"
            );
        }
    }
}

/// xorshift64*: tiny, seedable, good enough to mix query choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The stress suites' seed: `QSERV_STRESS_SEED`, default 1, so CI can
/// run a seed matrix.
pub fn stress_seed() -> u64 {
    std::env::var("QSERV_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}
