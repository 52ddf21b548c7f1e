//! The six workloads: which catalog, how many connections, and the fixed
//! statement list of a *round* with its seeded parameters.

use crate::catalog::{Catalog, Expect};

/// Statement classes: the paper's §6 query names plus the two scans the
/// benchmark adds (`SCAN`: streamed three-column full-table read;
/// `ZONE`: zone-map-prunable declination-band count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Lv1,
    Lv2,
    Lv3,
    Hv1,
    Hv2,
    Hv3,
    Hvs,
    Scan,
    Zone,
    Shv1,
    Shv2,
}

impl Class {
    pub const ALL: [Class; 11] = [
        Class::Lv1,
        Class::Lv2,
        Class::Lv3,
        Class::Hv1,
        Class::Hv2,
        Class::Hv3,
        Class::Hvs,
        Class::Scan,
        Class::Zone,
        Class::Shv1,
        Class::Shv2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Lv1 => "LV1",
            Class::Lv2 => "LV2",
            Class::Lv3 => "LV3",
            Class::Hv1 => "HV1",
            Class::Hv2 => "HV2",
            Class::Hv3 => "HV3",
            Class::Hvs => "HVS",
            Class::Scan => "SCAN",
            Class::Zone => "ZONE",
            Class::Shv1 => "SHV1",
            Class::Shv2 => "SHV2",
        }
    }
}

/// One statement of a round, with what a correct answer looks like.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
    /// The same question for the single-node engine, where it differs
    /// (the frontend-only `qserv_areaspec_box` becomes the worker UDF).
    pub oracle_sql: Option<String>,
    /// Issued with `query_stream` (rows arrive as batches) instead of
    /// `query` (buffered).
    pub stream: bool,
    pub expect: Expect,
}

impl Stmt {
    fn new(class: Class, sql: String, expect: Expect) -> Stmt {
        Stmt {
            class,
            sql,
            oracle_sql: None,
            stream: false,
            expect,
        }
    }

    pub fn oracle_sql(&self) -> &str {
        self.oracle_sql.as_deref().unwrap_or(&self.sql)
    }
}

/// SplitMix64: the benchmark's own seeded generator, so that the same
/// `--seed` gives the same statement list on every toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// A decimal literal with `decimals` places and the exact value the SQL
/// lexer will read back from it.
fn literal(x: f64, decimals: usize) -> (String, f64) {
    let text = format!("{x:.decimals$}");
    let value = text.parse().expect("a formatted float parses");
    (text, value)
}

/// A box `[lon, lon + size] × [lat, lat + size]` inside the footprint
/// that does not wrap in RA, as literals and values.
fn sky_box(rng: &mut Rng, size: f64) -> ([String; 4], [f64; 4]) {
    let (lon0, lat0, lon1, lat1) = crate::api::FOOTPRINT;
    let (lon_t, lon) = literal(rng.uniform(lon0, lon1 - size), 3);
    let (lat_t, lat) = literal(rng.uniform(lat0, lat1 - size), 3);
    let (lon2_t, lon2) = literal(lon + size, 3);
    let (lat2_t, lat2) = literal(lat + size, 3);
    ([lon_t, lat_t, lon2_t, lat2_t], [lon, lat, lon2, lat2])
}

/// The five statement lists. `mixed` runs two of them side by side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round {
    LvPoint,
    HvAgg,
    HvRows,
    ColdScan,
    ShvJoin,
}

/// HVS: full-scan aggregate over Source with a threshold that excludes
/// no chunk. Shared by `hv_agg` (warm) and `cold_scan`.
fn hvs(cat: &Catalog, rng: &mut Rng) -> Stmt {
    let (t_text, t) = literal(rng.uniform(500.0, 5000.0), 1);
    Stmt::new(
        Class::Hvs,
        format!("SELECT COUNT(*), AVG(psfFlux) FROM Source WHERE psfFlux > {t_text}"),
        cat.expect_flux_above(t),
    )
}

impl Round {
    /// Whether the round is interactive lookups (the latency-sensitive
    /// side of `mixed`) rather than scans or joins.
    pub fn is_lookup(self) -> bool {
        self == Round::LvPoint
    }

    /// Rounds the traced replay samples at full scale: at least 200 LV
    /// statements and 20 HV statements, except `hv_rows`, whose 14
    /// statements of 22 000–100 000 rows already take as long to take
    /// apart as the others together.
    pub fn replay_rounds(self) -> usize {
        match self {
            Round::LvPoint => 70,
            Round::HvAgg => 7,
            Round::HvRows => 7,
            Round::ColdScan => 10,
            Round::ShvJoin => 60,
        }
    }

    /// The round's statements with freshly drawn parameters.
    pub fn draw(self, cat: &Catalog, rng: &mut Rng) -> Vec<Stmt> {
        match self {
            Round::LvPoint => {
                let n = cat.objects().len() as u64;
                let id1 = rng.below(n) as i64 + 1;
                let id2 = rng.below(n) as i64 + 1;
                let (b, v) = sky_box(rng, 1.0);
                vec![
                    Stmt::new(
                        Class::Lv1,
                        format!("SELECT * FROM Object WHERE objectId = {id1}"),
                        cat.expect_object(id1),
                    ),
                    Stmt::new(
                        Class::Lv2,
                        format!(
                            "SELECT sourceId, taiMidPoint, fluxToAbMag(psfFlux), \
                             fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = {id2}"
                        ),
                        cat.expect_sources(id2),
                    ),
                    Stmt::new(
                        Class::Lv3,
                        format!(
                            "SELECT COUNT(*) FROM Object \
                             WHERE ra_PS BETWEEN {} AND {} AND decl_PS BETWEEN {} AND {} \
                             AND fluxToAbMag(zFlux_PS) BETWEEN 18 AND 25 \
                             AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN -0.5 AND 0.5",
                            b[0], b[2], b[1], b[3]
                        ),
                        cat.expect_box_colour_count(v[0], v[1], v[2], v[3]),
                    ),
                ]
            }
            Round::HvAgg => vec![
                Stmt::new(
                    Class::Hv1,
                    "SELECT COUNT(*) FROM Object".to_string(),
                    cat.expect_object_count(),
                ),
                Stmt::new(
                    Class::Hv3,
                    "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId \
                     FROM Object GROUP BY chunkId"
                        .to_string(),
                    cat.expect_chunk_density(),
                ),
                hvs(cat, rng),
            ],
            Round::HvRows => {
                let (cut_text, cut) = literal(rng.uniform(0.39, 0.41), 4);
                let mut scan = Stmt::new(
                    Class::Scan,
                    "SELECT objectId, ra_PS, decl_PS FROM Object".to_string(),
                    cat.expect_all_objects(),
                );
                scan.stream = true;
                vec![
                    Stmt::new(
                        Class::Hv2,
                        format!(
                            "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, \
                             iFlux_PS, zFlux_PS, yFlux_PS FROM Object \
                             WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > {cut_text}"
                        ),
                        cat.expect_colour_cut(cut),
                    ),
                    scan,
                ]
            }
            Round::ColdScan => {
                let (lo_text, lo) = literal(rng.uniform(-60.0, 56.0), 2);
                let (hi_text, hi) = literal(lo + 4.0, 2);
                vec![
                    hvs(cat, rng),
                    Stmt::new(
                        Class::Zone,
                        format!(
                            "SELECT COUNT(*) FROM Object \
                             WHERE decl_PS BETWEEN {lo_text} AND {hi_text}"
                        ),
                        cat.expect_decl_band(lo, hi),
                    ),
                ]
            }
            Round::ShvJoin => {
                let (b1, v1) = sky_box(rng, 10.0);
                let (b2, v2) = sky_box(rng, 10.0);
                let (sep_text, sep) = literal(rng.uniform(0.00002, 0.00006), 7);
                let near = "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.02";
                let displaced = format!(
                    "o.objectId = s.objectId \
                     AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > {sep_text}"
                );
                let shv2_select =
                    "SELECT s.sourceId, o.objectId, s.ra, s.decl, o.ra_PS, o.decl_PS \
                                   FROM Object o, Source s";
                let mut shv1 = Stmt::new(
                    Class::Shv1,
                    format!(
                        "SELECT count(*) FROM Object o1, Object o2 \
                         WHERE qserv_areaspec_box({}, {}, {}, {}) AND {near}",
                        b1[0], b1[1], b1[2], b1[3]
                    ),
                    cat.expect_near_pairs(v1[0], v1[1], v1[2], v1[3], 0.02),
                );
                shv1.oracle_sql = Some(format!(
                    "SELECT count(*) FROM Object o1, Object o2 \
                     WHERE qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, {}, {}, {}, {}) = 1 \
                     AND {near}",
                    b1[0], b1[1], b1[2], b1[3]
                ));
                let mut shv2 = Stmt::new(
                    Class::Shv2,
                    format!(
                        "{shv2_select} WHERE qserv_areaspec_box({}, {}, {}, {}) AND {displaced}",
                        b2[0], b2[1], b2[2], b2[3]
                    ),
                    cat.expect_displaced_sources(v2[0], v2[1], v2[2], v2[3], sep),
                );
                shv2.oracle_sql = Some(format!(
                    "{shv2_select} \
                     WHERE qserv_ptInSphericalBox(o.ra_PS, o.decl_PS, {}, {}, {}, {}) = 1 \
                     AND {displaced}",
                    b2[0], b2[1], b2[2], b2[3]
                ));
                vec![shv1, shv2]
            }
        }
    }
}

/// Which of the two catalogs a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `W`: 100 000 Object / ≈500 000 Source rows, in worker memory.
    Warm,
    /// `C`: 200 000 Object / ≈1 000 000 Source rows in `.qchunk` files,
    /// residency budget a quarter of the file bytes.
    Cold,
}

impl Scale {
    pub fn objects(self) -> usize {
        match self {
            Scale::Warm => 100_000,
            Scale::Cold => 200_000,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Warm => "W",
            Scale::Cold => "C",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub scale: Scale,
    /// One closed-loop connection per entry, each looping its round.
    pub clients: &'static [Round],
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lv_point",
        why: "one-chunk lookups: fixed per-statement cost (proxy, parse/plan, index, one fabric round trip) is nearly all the time",
        scale: Scale::Warm,
        clients: &[Round::LvPoint, Round::LvPoint],
    },
    Workload {
        name: "hv_agg",
        why: "400-chunk fan-out with tiny results: dispatch, fabric round trips, kernels and fold-merge dominate, result bytes do not",
        scale: Scale::Warm,
        clients: &[Round::HvAgg],
    },
    Workload {
        name: "hv_rows",
        why: "same fan-out returning 22k-100k rows: dump encode/decode, append merge and ROWS frames dominate; hv_agg is its bypass",
        scale: Scale::Warm,
        clients: &[Round::HvRows],
    },
    Workload {
        name: "cold_scan",
        why: "on-disk catalog four times the residency budget: scans decode pages every time, so the cold-warm gap is measured",
        scale: Scale::Cold,
        clients: &[Round::ColdScan],
    },
    Workload {
        name: "shv_join",
        why: "near-neighbour and Object-Source joins in a box: few chunks, so worker subchunk-table build and the join kernel dominate",
        scale: Scale::Warm,
        clients: &[Round::ShvJoin],
    },
    Workload {
        name: "mixed",
        why: "Figure 14: lookups beside full-sky scans through one service, so a scan gain that starves lookups shows",
        scale: Scale::Warm,
        clients: &[Round::LvPoint, Round::HvAgg],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;

    #[test]
    fn same_seed_same_statement_list() {
        let cat = Catalog::new(api::generate_catalog(2_000, 11));
        for round in [
            Round::LvPoint,
            Round::HvAgg,
            Round::HvRows,
            Round::ColdScan,
            Round::ShvJoin,
        ] {
            let draw = |seed| {
                let mut rng = Rng::new(seed);
                (0..5)
                    .flat_map(|_| round.draw(&cat, &mut rng))
                    .collect::<Vec<Stmt>>()
            };
            assert_eq!(draw(42), draw(42), "{round:?} is deterministic");
            if round != Round::HvAgg {
                assert_ne!(draw(42), draw(43), "{round:?} depends on the seed");
            }
        }
        // The catalog itself is a function of the seed too.
        let again = Catalog::new(api::generate_catalog(2_000, 11));
        assert_eq!(cat.objects(), again.objects());
    }

    #[test]
    fn literals_read_back_exactly() {
        let (text, value) = literal(123.456_789, 3);
        assert_eq!(text, "123.457");
        assert_eq!(value, 123.457);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let (_, v) = sky_box(&mut rng, 10.0);
            assert!(v[0] >= 0.0 && v[2] <= 359.9 + 1e-9 && v[2] > v[0]);
            assert!(v[1] >= -60.0 && v[3] <= 60.0 + 1e-9 && v[3] > v[1]);
        }
    }

    #[test]
    fn workload_names_are_unique_and_why_fits_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(!w.clients.is_empty() && w.clients.len() <= 2);
        }
    }
}
