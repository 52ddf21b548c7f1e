//! Real-execution fixtures for the correctness spot-checks in the
//! `figures` harness, its only user.

use qserv::{ClusterBuilder, Qserv};
use qserv_datagen::generate::{CatalogConfig, Patch};

/// A deterministic laptop-sized catalog: 1500 objects, ~7.5k sources.
pub fn bench_patch() -> Patch {
    Patch::generate(&CatalogConfig::small(1500, 424242))
}

/// A 4-node cluster loaded with [`bench_patch`].
pub fn bench_cluster() -> Qserv {
    let patch = bench_patch();
    ClusterBuilder::new(4).build(&patch.objects, &patch.sources)
}

/// The paper's §6.2 query texts, parameterized for the fixture's scale.
pub mod queries {
    /// LV1 — object retrieval.
    pub fn lv1(object_id: i64) -> String {
        format!("SELECT * FROM Object WHERE objectId = {object_id}")
    }

    /// LV2 — time series.
    pub fn lv2(object_id: i64) -> String {
        format!(
            "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl \
             FROM Source WHERE objectId = {object_id}"
        )
    }

    /// LV3 — spatially-restricted colour filter.
    pub const LV3: &str = "SELECT COUNT(*) FROM Object \
        WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4 \
        AND fluxToAbMag(zFlux_PS) BETWEEN 18 AND 25 \
        AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN -0.5 AND 0.5";

    /// HV1 — full-sky count.
    pub const HV1: &str = "SELECT COUNT(*) FROM Object";

    /// HV2 — full-sky filter.
    pub const HV2: &str = "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, \
        iFlux_PS, zFlux_PS, yFlux_PS FROM Object \
        WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.4";

    /// HV3 — density per chunk.
    pub const HV3: &str = "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId \
        FROM Object GROUP BY chunkId";

    /// SHV1 — near-neighbour self-join (radius below the test chunker's
    /// 0.1° overlap).
    pub const SHV1: &str = "SELECT count(*) FROM Object o1, Object o2 \
        WHERE qserv_areaspec_box(0.0, -5.0, 4.0, 5.0) \
        AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05";

    /// SHV2 — sources displaced from their objects.
    pub const SHV2: &str = "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS \
        FROM Object o, Source s \
        WHERE qserv_areaspec_box(358.0, -7.0, 5.0, 7.0) \
        AND o.objectId = s.objectId \
        AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0000277";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_answers_every_paper_query() {
        let q = bench_cluster();
        for sql in [
            queries::lv1(7),
            queries::lv2(7),
            queries::LV3.to_string(),
            queries::HV1.to_string(),
            queries::HV2.to_string(),
            queries::HV3.to_string(),
            queries::SHV1.to_string(),
            queries::SHV2.to_string(),
        ] {
            q.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }
}
