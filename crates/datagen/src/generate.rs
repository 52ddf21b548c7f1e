//! PT1.1-like patch synthesis.
//!
//! Generates an Object table (positions + per-band fluxes) and a Source
//! table (per-detection rows: ~41 per object on average, small positional
//! scatter, a time axis) over the PT1.1 footprint. Deterministic for a
//! given seed.

use qserv_sphgeom::SphericalBox;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The six LSST photometric bands, in catalog column order
/// (`uFlux_PS` … `yFlux_PS`).
pub const BANDS: [&str; 6] = ["u", "g", "r", "i", "z", "y"];

/// One row of the Object table (the catalog's per-celestial-object
/// summary).
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectRow {
    /// Unique object identifier.
    pub object_id: i64,
    /// Right ascension of the point-source model, degrees.
    pub ra_ps: f64,
    /// Declination of the point-source model, degrees.
    pub decl_ps: f64,
    /// Point-source fluxes per band (nJy), indexed by [`BANDS`].
    pub flux_ps: [f64; 6],
    /// Small-galaxy model flux in the u band (nJy) — the paper's §5.3
    /// example aggregates `uFlux_SG`.
    pub u_flux_sg: f64,
    /// Point-source radius estimate, degrees (`uRadius_PS` in §5.3).
    pub u_radius_ps: f64,
}

/// One row of the Source table (one detection of one object in one
/// exposure).
#[derive(Clone, Debug, PartialEq)]
pub struct SourceRow {
    /// Unique source identifier.
    pub source_id: i64,
    /// The detected object.
    pub object_id: i64,
    /// Detection right ascension, degrees.
    pub ra: f64,
    /// Detection declination, degrees.
    pub decl: f64,
    /// Mid-exposure time, MJD TAI.
    pub tai_mid_point: f64,
    /// PSF flux of the detection (nJy).
    pub psf_flux: f64,
    /// PSF flux uncertainty (nJy).
    pub psf_flux_err: f64,
}

/// One row of the RefObject table — a second catalog (think an external
/// reference survey over the same sky) used by cross-catalog XMatch.
#[derive(Clone, Debug, PartialEq)]
pub struct RefObjectRow {
    /// Unique reference-object identifier (disjoint from `object_id`).
    pub ref_object_id: i64,
    /// Right ascension, degrees.
    pub ra: f64,
    /// Declination, degrees.
    pub decl: f64,
    /// Calibrated magnitude in the reference band.
    pub mag: f64,
}

/// Parameters for patch synthesis.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Number of objects to synthesize.
    pub objects: usize,
    /// Mean sources per object (paper: ≈41; smaller in tests).
    pub mean_sources_per_object: f64,
    /// RNG seed: same seed, same catalog.
    pub seed: u64,
    /// Sky footprint (defaults to the PT1.1 patch).
    pub footprint: SphericalBox,
}

impl CatalogConfig {
    /// A small test-sized configuration over the PT1.1 footprint.
    pub fn small(objects: usize, seed: u64) -> CatalogConfig {
        CatalogConfig {
            objects,
            mean_sources_per_object: 5.0,
            seed,
            footprint: pt11_footprint(),
        }
    }
}

/// The PT1.1 footprint: RA 358°–5° (wrapping), decl −7°–+7° (§6.1.2).
pub fn pt11_footprint() -> SphericalBox {
    SphericalBox::from_degrees(358.0, -7.0, 5.0, 7.0)
}

/// A synthesized patch: objects plus their sources.
#[derive(Clone, Debug)]
pub struct Patch {
    /// Object rows.
    pub objects: Vec<ObjectRow>,
    /// Source rows (grouped by object in generation order).
    pub sources: Vec<SourceRow>,
    /// The footprint the rows cover.
    pub footprint: SphericalBox,
}

/// A streaming synthesizer: yields one object (plus its detections) at a
/// time, holding only the RNG state and one object's sources in memory.
/// [`Patch::generate`] drains this same iterator, so the streamed rows
/// are bit-identical to a materialized patch for the same config.
pub struct ObjectStream {
    rng: SmallRng,
    lon0: f64,
    lon_extent: f64,
    z_lo: f64,
    z_hi: f64,
    mean_sources: f64,
    remaining: usize,
    next_object_id: i64,
    next_source_id: i64,
}

impl ObjectStream {
    /// Starts the stream for `config` (same seed, same rows as
    /// [`Patch::generate`]).
    pub fn new(config: &CatalogConfig) -> ObjectStream {
        let fp = config.footprint;
        ObjectStream {
            rng: SmallRng::seed_from_u64(config.seed),
            lon0: fp.lon_min_deg(),
            lon_extent: fp.lon_extent_deg(),
            z_lo: fp.lat_min_deg().to_radians().sin(),
            z_hi: fp.lat_max_deg().to_radians().sin(),
            mean_sources: config.mean_sources_per_object,
            remaining: config.objects,
            next_object_id: 1,
            next_source_id: 1,
        }
    }
}

impl Iterator for ObjectStream {
    type Item = (ObjectRow, Vec<SourceRow>);

    fn next(&mut self) -> Option<(ObjectRow, Vec<SourceRow>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rng = &mut self.rng;
        let object_id = self.next_object_id;
        self.next_object_id += 1;

        // Uniform on the sphere patch: uniform in (lon, sin lat).
        let ra = (self.lon0 + rng.gen::<f64>() * self.lon_extent).rem_euclid(360.0);
        let z = self.z_lo + rng.gen::<f64>() * (self.z_hi - self.z_lo);
        let decl = z.clamp(-1.0, 1.0).asin().to_degrees();

        // Log-normal-ish fluxes: magnitudes uniform in [18, 27] per
        // band with band-to-band colour scatter, converted to nJy via
        // the engine's zero point (31.4).
        let base_mag = 18.0 + rng.gen::<f64>() * 9.0;
        let mut flux_ps = [0.0; 6];
        for f in flux_ps.iter_mut() {
            let mag = base_mag + rng.gen::<f64>() * 1.2 - 0.6;
            *f = 10f64.powf((31.4 - mag) / 2.5);
        }
        let u_flux_sg = flux_ps[0] * (0.5 + rng.gen::<f64>());
        let u_radius_ps = rng.gen::<f64>() * 0.1;

        // Sources: 1 + Poisson-ish count via a geometric-ish mixture;
        // we use a simple uniform in [1, 2*mean) which preserves the
        // mean and is cheap and deterministic.
        let n_src = 1 + (rng.gen::<f64>() * (2.0 * self.mean_sources - 1.0)) as usize;
        let mut sources = Vec::with_capacity(n_src);
        for k in 0..n_src {
            // Detections scatter within ~0.3 arcsec of the object.
            let scatter = 0.3 / 3600.0;
            let cosd = decl.to_radians().cos().max(1e-6);
            sources.push(SourceRow {
                source_id: self.next_source_id,
                object_id,
                ra: (ra + (rng.gen::<f64>() - 0.5) * 2.0 * scatter / cosd).rem_euclid(360.0),
                decl: (decl + (rng.gen::<f64>() - 0.5) * 2.0 * scatter).clamp(-90.0, 90.0),
                tai_mid_point: 54_600.0 + k as f64 * 3.0 + rng.gen::<f64>(),
                psf_flux: flux_ps[3] * (0.9 + rng.gen::<f64>() * 0.2),
                psf_flux_err: flux_ps[3] * 0.02,
            });
            self.next_source_id += 1;
        }

        Some((
            ObjectRow {
                object_id,
                ra_ps: ra,
                decl_ps: decl,
                flux_ps,
                u_flux_sg,
                u_radius_ps,
            },
            sources,
        ))
    }
}

impl Patch {
    /// Synthesizes a patch from `config` by draining an [`ObjectStream`].
    pub fn generate(config: &CatalogConfig) -> Patch {
        let mut objects = Vec::with_capacity(config.objects);
        let mut sources = Vec::new();
        for (o, srcs) in ObjectStream::new(config) {
            objects.push(o);
            sources.extend(srcs);
        }
        Patch {
            objects,
            sources,
            footprint: config.footprint,
        }
    }

    /// Objects per square degree of the footprint.
    pub fn object_density_per_deg2(&self) -> f64 {
        self.objects.len() as f64 / self.footprint.area_deg2()
    }

    /// Synthesizes a reference catalog (second survey) over this patch's
    /// sky, for cross-catalog XMatch: ~70% of objects get a counterpart
    /// displaced by up to ~10 arcsec, plus ~20% orphan reference objects
    /// with no LSST counterpart. Uses an RNG stream independent of
    /// [`Patch::generate`] (different seed derivation), so adding a
    /// reference catalog never perturbs the Object/Source streams.
    pub fn generate_ref_catalog(&self, seed: u64) -> Vec<RefObjectRow> {
        // Decorrelate from the object-stream seed; `^` alone would map
        // seed 0 onto the golden-ratio constant some callers use.
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5ef0);
        let mut rows = Vec::new();
        let mut next_id: i64 = 100_000;
        for o in &self.objects {
            if rng.gen::<f64>() >= 0.7 {
                continue;
            }
            // Counterpart within ~10 arcsec (0.003°) of the LSST object.
            let scatter = rng.gen::<f64>() * 0.003;
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let cosd = o.decl_ps.to_radians().cos().max(1e-6);
            rows.push(RefObjectRow {
                ref_object_id: next_id,
                ra: (o.ra_ps + scatter * angle.cos() / cosd).rem_euclid(360.0),
                decl: (o.decl_ps + scatter * angle.sin()).clamp(-90.0, 90.0),
                mag: 14.0 + rng.gen::<f64>() * 8.0,
            });
            next_id += 1;
        }
        // Orphans: uniform over the footprint, ~20% of the object count.
        let fp = self.footprint;
        let lon0 = fp.lon_min_deg();
        let lon_extent = fp.lon_extent_deg();
        let (z_lo, z_hi) = (
            fp.lat_min_deg().to_radians().sin(),
            fp.lat_max_deg().to_radians().sin(),
        );
        let orphans = self.objects.len() / 5;
        for _ in 0..orphans {
            let z = z_lo + rng.gen::<f64>() * (z_hi - z_lo);
            rows.push(RefObjectRow {
                ref_object_id: next_id,
                ra: (lon0 + rng.gen::<f64>() * lon_extent).rem_euclid(360.0),
                decl: z.clamp(-1.0, 1.0).asin().to_degrees(),
                mag: 14.0 + rng.gen::<f64>() * 8.0,
            });
            next_id += 1;
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_sphgeom::region::Region;
    use qserv_sphgeom::LonLat;

    #[test]
    fn deterministic_per_seed() {
        let a = Patch::generate(&CatalogConfig::small(100, 42));
        let b = Patch::generate(&CatalogConfig::small(100, 42));
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.sources, b.sources);
        let c = Patch::generate(&CatalogConfig::small(100, 43));
        assert_ne!(a.objects, c.objects);
    }

    /// The stream and the materialized generator share one RNG schedule.
    #[test]
    fn object_stream_reproduces_patch_generate() {
        let cfg = CatalogConfig::small(250, 7);
        let p = Patch::generate(&cfg);
        let mut objects = Vec::new();
        let mut sources = Vec::new();
        for (o, s) in ObjectStream::new(&cfg) {
            objects.push(o);
            sources.extend(s);
        }
        assert_eq!(objects, p.objects);
        assert_eq!(sources, p.sources);
    }

    #[test]
    fn objects_inside_footprint() {
        let p = Patch::generate(&CatalogConfig::small(500, 1));
        for o in &p.objects {
            assert!(
                p.footprint
                    .contains(&LonLat::from_degrees(o.ra_ps, o.decl_ps)),
                "object at ({}, {}) outside PT1.1 footprint",
                o.ra_ps,
                o.decl_ps
            );
        }
    }

    #[test]
    fn object_ids_unique_and_dense() {
        let p = Patch::generate(&CatalogConfig::small(200, 7));
        let mut ids: Vec<i64> = p.objects.iter().map(|o| o.object_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        assert_eq!(*ids.first().unwrap(), 1);
        assert_eq!(*ids.last().unwrap(), 200);
    }

    #[test]
    fn source_multiplicity_near_mean() {
        let cfg = CatalogConfig {
            objects: 2000,
            mean_sources_per_object: 41.0,
            seed: 3,
            footprint: pt11_footprint(),
        };
        let p = Patch::generate(&cfg);
        let ratio = p.sources.len() as f64 / p.objects.len() as f64;
        assert!(
            (35.0..=47.0).contains(&ratio),
            "sources/object ratio {ratio} should be near 41 (paper §6.2)"
        );
    }

    #[test]
    fn sources_reference_valid_objects_and_sit_nearby() {
        let p = Patch::generate(&CatalogConfig::small(100, 5));
        for s in &p.sources {
            let o = &p.objects[(s.object_id - 1) as usize];
            assert_eq!(o.object_id, s.object_id);
            let d = qserv_sphgeom::angular_separation_deg(s.ra, s.decl, o.ra_ps, o.decl_ps);
            assert!(d < 0.001, "source displaced {d} deg from its object");
        }
    }

    #[test]
    fn source_ids_unique() {
        let p = Patch::generate(&CatalogConfig::small(300, 9));
        let mut ids: Vec<i64> = p.sources.iter().map(|s| s.source_id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn ref_catalog_is_deterministic_and_leaves_patch_untouched() {
        let cfg = CatalogConfig::small(150, 42);
        let p = Patch::generate(&cfg);
        let q = Patch::generate(&cfg);
        let a = p.generate_ref_catalog(42);
        let b = q.generate_ref_catalog(42);
        assert_eq!(a, b);
        assert_ne!(a, p.generate_ref_catalog(43));
        // The reference catalog comes from an independent RNG stream:
        // generating it does not change Object/Source rows.
        assert_eq!(p.objects, q.objects);
        assert_eq!(p.sources, q.sources);
    }

    #[test]
    fn ref_catalog_mixes_counterparts_and_orphans() {
        let p = Patch::generate(&CatalogConfig::small(400, 8));
        let refs = p.generate_ref_catalog(8);
        // ~70% counterparts + 20% orphans.
        assert!((refs.len() as f64) > 0.6 * 400.0);
        assert!((refs.len() as f64) < 1.1 * 400.0);
        let near = refs
            .iter()
            .filter(|r| {
                p.objects.iter().any(|o| {
                    qserv_sphgeom::angular_separation_deg(r.ra, r.decl, o.ra_ps, o.decl_ps) <= 0.003
                })
            })
            .count();
        // All counterparts are within the 0.003° scatter; orphans mostly
        // are not (a few may land near an object by chance).
        assert!(near >= refs.len() - 400 / 5);
        let mut ids: Vec<i64> = refs.iter().map(|r| r.ref_object_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), refs.len(), "ref ids must be unique");
        assert!(ids[0] >= 100_000, "ref ids disjoint from object ids");
    }

    #[test]
    fn fluxes_are_positive_and_plausible() {
        let p = Patch::generate(&CatalogConfig::small(300, 11));
        for o in &p.objects {
            for f in o.flux_ps {
                assert!(f > 0.0);
                let mag = 31.4 - 2.5 * f.log10();
                assert!((16.0..30.0).contains(&mag), "mag {mag} out of range");
            }
        }
    }

    #[test]
    fn density_estimate() {
        let p = Patch::generate(&CatalogConfig::small(980, 2));
        let area = p.footprint.area_deg2();
        assert!((97.0..99.0).contains(&area), "PT1.1 area {area} ~ 98 deg^2");
        assert!((p.object_density_per_deg2() - 10.0).abs() < 0.5);
    }
}
