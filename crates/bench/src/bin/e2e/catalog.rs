//! The benchmark's own view of the generated catalog: the lookups that
//! give every statement's expected answer (row count and a checksum)
//! straight from the generated rows, without running a query.

use crate::api::{self, ObjectRow, Patch, SourceRow};
use std::collections::HashMap;

/// Declination bins of the 1°×1° object grid (decl −90…90).
const DECL_BINS: usize = 180;
/// Right-ascension bins of the object grid (RA 0…360).
const RA_BINS: usize = 360;

/// What a correct answer looks like from the client's side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Rows in the result.
    pub rows: u64,
    /// Sum of the integer values in the result's first column (an id
    /// column or a `COUNT(*)`), wrapping.
    pub sum0: i64,
}

pub struct Catalog {
    pub patch: Patch,
    /// `(chunkId, subChunkId)` of object `i` (objectId `i + 1`).
    pub locs: Vec<(i32, i32)>,
    /// `patch.sources[first_source[i]..first_source[i + 1]]` are object
    /// `i`'s sources.
    first_source: Vec<usize>,
    /// Object indices per 1°×1° sky bin, decl-major.
    grid: Vec<Vec<u32>>,
    /// Source `psfFlux`, ascending.
    flux_sorted: Vec<f64>,
    /// Object `decl_PS`, ascending.
    decl_sorted: Vec<f64>,
    /// Object indices per chunk that owns at least one object.
    chunk_members: HashMap<i32, Vec<u32>>,
}

fn bin_of(ra: f64, decl: f64) -> (usize, usize) {
    let d = ((decl + 90.0).floor() as usize).min(DECL_BINS - 1);
    let r = (ra.rem_euclid(360.0).floor() as usize).min(RA_BINS - 1);
    (d, r)
}

impl Catalog {
    pub fn new(patch: Patch) -> Catalog {
        let chunker = api::chunker();
        let n = patch.objects.len();
        let mut locs = Vec::with_capacity(n);
        let mut grid = vec![Vec::new(); DECL_BINS * RA_BINS];
        for (i, o) in patch.objects.iter().enumerate() {
            assert_eq!(o.object_id, i as i64 + 1, "object ids are 1-based, dense");
            locs.push(api::locate(&chunker, o.ra_ps, o.decl_ps));
            let (d, r) = bin_of(o.ra_ps, o.decl_ps);
            grid[d * RA_BINS + r].push(i as u32);
        }
        let mut first_source = vec![0usize; n + 1];
        for (k, s) in patch.sources.iter().enumerate() {
            assert_eq!(s.source_id, k as i64 + 1, "source ids are 1-based, dense");
            first_source[s.object_id as usize] = k + 1;
        }
        for i in 1..=n {
            // An object's sources are contiguous, in object order.
            first_source[i] = first_source[i].max(first_source[i - 1]);
        }
        let mut flux_sorted: Vec<f64> = patch.sources.iter().map(|s| s.psf_flux).collect();
        flux_sorted.sort_by(f64::total_cmp);
        let mut decl_sorted: Vec<f64> = patch.objects.iter().map(|o| o.decl_ps).collect();
        decl_sorted.sort_by(f64::total_cmp);
        let mut chunk_members: HashMap<i32, Vec<u32>> = HashMap::new();
        for (i, loc) in locs.iter().enumerate() {
            chunk_members.entry(loc.0).or_default().push(i as u32);
        }
        Catalog {
            patch,
            locs,
            first_source,
            grid,
            flux_sorted,
            decl_sorted,
            chunk_members,
        }
    }

    pub fn objects(&self) -> &[ObjectRow] {
        &self.patch.objects
    }

    pub fn sources_of(&self, object_index: usize) -> &[SourceRow] {
        &self.patch.sources[self.first_source[object_index]..self.first_source[object_index + 1]]
    }

    /// Indices of the objects a chunk owns.
    pub fn objects_of_chunk(&self, chunk: i32) -> &[u32] {
        self.chunk_members.get(&chunk).map_or(&[], Vec::as_slice)
    }

    /// Rows stored in the partitioned tables (Object + Source).
    pub fn stored_rows(&self) -> u64 {
        (self.patch.objects.len() + self.patch.sources.len()) as u64
    }

    /// Objects with `lon0 ≤ ra ≤ lon1` and `lat0 ≤ decl ≤ lat1` (a box
    /// that does not wrap in RA).
    pub fn objects_in_box(
        &self,
        lon0: f64,
        lat0: f64,
        lon1: f64,
        lat1: f64,
    ) -> impl Iterator<Item = (usize, &ObjectRow)> {
        let (d0, r0) = bin_of(lon0, lat0);
        let (d1, r1) = bin_of(lon1, lat1);
        (d0..=d1)
            .flat_map(move |d| (r0..=r1).map(move |r| d * RA_BINS + r))
            .flat_map(|bin| self.grid[bin].iter())
            .map(|&i| (i as usize, &self.patch.objects[i as usize]))
            .filter(move |(_, o)| {
                o.ra_ps >= lon0 && o.ra_ps <= lon1 && o.decl_ps >= lat0 && o.decl_ps <= lat1
            })
    }

    /// Objects within `radius` degrees (< 0.5) of a position, itself
    /// included: the candidates come from the 3×3 bins around it.
    fn neighbours(&self, ra: f64, decl: f64, radius: f64) -> usize {
        let (d, r) = bin_of(ra, decl);
        let mut count = 0;
        for dd in d.saturating_sub(1)..=(d + 1).min(DECL_BINS - 1) {
            for dr in [RA_BINS - 1, 0, 1] {
                let rr = (r + dr) % RA_BINS;
                for &i in &self.grid[dd * RA_BINS + rr] {
                    let o = &self.patch.objects[i as usize];
                    if api::ang_sep_deg(ra, decl, o.ra_ps, o.decl_ps) < radius {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    // --- expected answers, one per statement class ----------------------

    /// `SELECT * FROM Object WHERE objectId = id`.
    pub fn expect_object(&self, id: i64) -> Expect {
        Expect { rows: 1, sum0: id }
    }

    /// `SELECT sourceId, … FROM Source WHERE objectId = id`.
    pub fn expect_sources(&self, id: i64) -> Expect {
        let sources = self.sources_of((id - 1) as usize);
        Expect {
            rows: sources.len() as u64,
            sum0: sources.iter().map(|s| s.source_id).sum(),
        }
    }

    /// `SELECT COUNT(*) FROM Object` in a box with LV3's colour cut.
    pub fn expect_box_colour_count(&self, lon0: f64, lat0: f64, lon1: f64, lat1: f64) -> Expect {
        let count = self
            .objects_in_box(lon0, lat0, lon1, lat1)
            .filter(|(_, o)| {
                let z = api::flux_to_ab_mag(o.flux_ps[4]);
                let gr = api::flux_to_ab_mag(o.flux_ps[1]) - api::flux_to_ab_mag(o.flux_ps[2]);
                (18.0..=25.0).contains(&z) && (-0.5..=0.5).contains(&gr)
            })
            .count();
        Expect {
            rows: 1,
            sum0: count as i64,
        }
    }

    /// `SELECT COUNT(*) FROM Object`.
    pub fn expect_object_count(&self) -> Expect {
        Expect {
            rows: 1,
            sum0: self.patch.objects.len() as i64,
        }
    }

    /// `SELECT count(*) AS n, … FROM Object GROUP BY chunkId`.
    pub fn expect_chunk_density(&self) -> Expect {
        Expect {
            rows: self.chunk_members.len() as u64,
            sum0: self.patch.objects.len() as i64,
        }
    }

    /// `SELECT COUNT(*), AVG(psfFlux) FROM Source WHERE psfFlux > t`.
    pub fn expect_flux_above(&self, t: f64) -> Expect {
        let at_or_below = self.flux_sorted.partition_point(|&f| f <= t);
        Expect {
            rows: 1,
            sum0: (self.flux_sorted.len() - at_or_below) as i64,
        }
    }

    /// `SELECT COUNT(*) FROM Object WHERE decl_PS BETWEEN lo AND hi`.
    pub fn expect_decl_band(&self, lo: f64, hi: f64) -> Expect {
        let below = self.decl_sorted.partition_point(|&d| d < lo);
        let through = self.decl_sorted.partition_point(|&d| d <= hi);
        Expect {
            rows: 1,
            sum0: (through - below) as i64,
        }
    }

    /// `SELECT objectId, … FROM Object WHERE fluxToAbMag(iFlux_PS) −
    /// fluxToAbMag(zFlux_PS) > cut`.
    pub fn expect_colour_cut(&self, cut: f64) -> Expect {
        let mut e = Expect { rows: 0, sum0: 0 };
        for o in &self.patch.objects {
            if api::flux_to_ab_mag(o.flux_ps[3]) - api::flux_to_ab_mag(o.flux_ps[4]) > cut {
                e.rows += 1;
                e.sum0 += o.object_id;
            }
        }
        e
    }

    /// `SELECT objectId, ra_PS, decl_PS FROM Object`.
    pub fn expect_all_objects(&self) -> Expect {
        let n = self.patch.objects.len() as i64;
        Expect {
            rows: n as u64,
            sum0: n * (n + 1) / 2,
        }
    }

    /// SHV1: pairs `(o1 in the box, o2 anywhere)` closer than `radius`,
    /// self pairs included (the statement does not exclude them).
    pub fn expect_near_pairs(
        &self,
        lon0: f64,
        lat0: f64,
        lon1: f64,
        lat1: f64,
        radius: f64,
    ) -> Expect {
        let pairs: usize = self
            .objects_in_box(lon0, lat0, lon1, lat1)
            .map(|(_, o)| self.neighbours(o.ra_ps, o.decl_ps, radius))
            .sum();
        Expect {
            rows: 1,
            sum0: pairs as i64,
        }
    }

    /// SHV2: sources of the box's objects displaced from their object by
    /// more than `min_sep` degrees; the checksum is over `sourceId`.
    pub fn expect_displaced_sources(
        &self,
        lon0: f64,
        lat0: f64,
        lon1: f64,
        lat1: f64,
        min_sep: f64,
    ) -> Expect {
        let mut e = Expect { rows: 0, sum0: 0 };
        for (i, o) in self.objects_in_box(lon0, lat0, lon1, lat1) {
            for s in self.sources_of(i) {
                if api::ang_sep_deg(s.ra, s.decl, o.ra_ps, o.decl_ps) > min_sep {
                    e.rows += 1;
                    e.sum0 += s.source_id;
                }
            }
        }
        e
    }
}
