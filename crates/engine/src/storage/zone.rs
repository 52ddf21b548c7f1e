//! Zone-map page elision: which row-group stripes a compiled plan can
//! skip, decided from the footer alone.

use super::format::{Footer, PageZone};
use crate::compile::{Kernel, NumLit};

/// Marks the stripes a compiled plan must scan: `true` = keep. A stripe
/// is dropped only when some kernel *provably* rejects every row in it
/// (see module docs for the soundness argument); program kernels and any
/// shape we cannot reason about keep the stripe.
pub(crate) fn prune_mask(footer: &Footer, kernels: &[Kernel]) -> Vec<bool> {
    (0..footer.n_groups())
        .map(|g| !kernels.iter().any(|k| kernel_excludes_group(footer, k, g)))
        .collect()
}

fn lit_f64(l: NumLit) -> f64 {
    match l {
        NumLit::I(v) => v as f64,
        NumLit::F(v) => v,
    }
}

fn kernel_excludes_group(footer: &Footer, kernel: &Kernel, g: usize) -> bool {
    match kernel {
        Kernel::Range { col, lo, hi } => zone_excludes_range(&footer.pages[*col][g].zone, lo, hi),
        Kernel::IntIn { col, keys } => match footer.pages[*col][g].zone {
            PageZone::Int { valid, min, max } => {
                if valid == 0 {
                    return true; // NULL never matches IN.
                }
                // `keys` is sorted: any key inside [min, max]?
                let i = keys.partition_point(|&k| k < min);
                !(i < keys.len() && keys[i] <= max)
            }
            _ => false,
        },
        Kernel::Box2D { lon, lat, bx } => {
            let lon_z = float_view(&footer.pages[*lon][g].zone);
            let lat_z = float_view(&footer.pages[*lat][g].zone);
            let (Some(lon_z), Some(lat_z)) = (lon_z, lat_z) else {
                return false;
            };
            // All-NULL coordinate column: no point can be in the box.
            if lon_z.valid == 0 && lon_z.nans == 0 {
                return true;
            }
            if lat_z.valid == 0 && lat_z.nans == 0 {
                return true;
            }
            // NaN coordinates poison rectangle reasoning: keep the page.
            if lon_z.nans > 0 || lat_z.nans > 0 {
                return false;
            }
            // Latitude ranges are absolute — sound even when the query
            // box wraps in longitude.
            if lat_z.min >= -90.0 && lat_z.max <= 90.0 {
                let (blat_min, blat_max) = (bx.lat_min_deg(), bx.lat_max_deg());
                if lat_z.max < blat_min || lat_z.min > blat_max {
                    return true;
                }
            }
            // Longitude only when neither the box nor the data wraps.
            let (blon_min, blon_max) = (bx.lon_min_deg(), bx.lon_max_deg());
            if blon_min <= blon_max
                && lon_z.min >= 0.0
                && lon_z.max < 360.0
                && (lon_z.max < blon_min || lon_z.min > blon_max)
            {
                return true;
            }
            false
        }
        Kernel::FnRange { .. } | Kernel::Program(_) => false,
    }
}

struct FloatView {
    valid: u64,
    nans: u64,
    min: f64,
    max: f64,
}

fn float_view(zone: &PageZone) -> Option<FloatView> {
    match *zone {
        PageZone::Int { valid, min, max } => Some(FloatView {
            valid,
            nans: 0,
            min: min as f64,
            max: max as f64,
        }),
        PageZone::Float {
            valid,
            nans,
            min,
            max,
        } => Some(FloatView {
            valid,
            nans,
            min,
            max,
        }),
        PageZone::Str => None,
    }
}

/// True when a [`Kernel::Range`] rejects every row of a page with this
/// zone. NULLs and NaNs fail every range predicate, so `valid == 0`
/// excludes outright; otherwise the bound comparison mirrors the kernel:
/// exact `i64` when both sides are integers, the kernel's own monotone
/// `as f64` conversion for any mixed pair (monotonicity keeps the
/// conclusion sound even where the conversion is lossy).
fn zone_excludes_range(
    zone: &PageZone,
    lo: &Option<(NumLit, bool)>,
    hi: &Option<(NumLit, bool)>,
) -> bool {
    // A NaN literal bound makes the comparison false for every row.
    for b in [lo, hi].into_iter().flatten() {
        if let (NumLit::F(v), _) = b {
            if v.is_nan() {
                return true;
            }
        }
    }
    match *zone {
        PageZone::Str => false,
        PageZone::Int { valid, min, max } => {
            if valid == 0 {
                return true;
            }
            if let Some((lit, strict)) = lo {
                let out = match lit {
                    NumLit::I(b) => {
                        if *strict {
                            max <= *b
                        } else {
                            max < *b
                        }
                    }
                    NumLit::F(b) => {
                        let m = max as f64;
                        if *strict {
                            m <= *b
                        } else {
                            m < *b
                        }
                    }
                };
                if out {
                    return true;
                }
            }
            if let Some((lit, strict)) = hi {
                let out = match lit {
                    NumLit::I(b) => {
                        if *strict {
                            min >= *b
                        } else {
                            min > *b
                        }
                    }
                    NumLit::F(b) => {
                        let m = min as f64;
                        if *strict {
                            m >= *b
                        } else {
                            m > *b
                        }
                    }
                };
                if out {
                    return true;
                }
            }
            false
        }
        PageZone::Float {
            valid, min, max, ..
        } => {
            if valid == 0 {
                return true;
            }
            if let Some((lit, strict)) = lo {
                let b = lit_f64(*lit);
                if (*strict && max <= b) || (!*strict && max < b) {
                    return true;
                }
            }
            if let Some((lit, strict)) = hi {
                let b = lit_f64(*lit);
                if (*strict && min >= b) || (!*strict && min > b) {
                    return true;
                }
            }
            false
        }
    }
}
