//! §VI experiment: QuadTree vs brute-force geospatial join.
//!
//! "Compared with the brute force Hive MapReduce execution, our Presto
//! Geospatial Plugin is more than 50X faster." The cost asymmetry is
//! algorithmic: brute force evaluates `st_contains` for every (trip,
//! geofence) pair; the QuadTree filters to the handful of candidate fences
//! whose bounding boxes contain the point.

use std::time::{Duration, Instant};

use presto_common::Result;
use presto_geo::generator::GeoWorkload;
use presto_geo::index::GeofenceIndex;

use crate::report::{ms, Gate, Report, Table};

/// Results of one geo run.
#[derive(Debug, Clone)]
pub struct GeoResult {
    /// QuadTree path elapsed.
    pub quadtree: Duration,
    /// Brute-force path elapsed.
    pub brute_force: Duration,
    /// st_contains evaluations, QuadTree path.
    pub quadtree_contains_calls: u64,
    /// st_contains evaluations, brute force.
    pub brute_contains_calls: u64,
    /// Trips per city, QuadTree path.
    pub quad_counts: Vec<u64>,
    /// Trips per city, brute force.
    pub brute_counts: Vec<u64>,
}

impl GeoResult {
    /// Wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.brute_force.as_secs_f64() / self.quadtree.as_secs_f64().max(1e-12)
    }
}

/// Count trips per city both ways.
pub fn run(cities: usize, trips: usize, vertices: usize, seed: u64) -> Result<GeoResult> {
    let workload = GeoWorkload::generate(cities, trips, vertices, seed);
    let index = GeofenceIndex::build(workload.cities.clone())?;

    // QuadTree path (the build_geo_index plan of Fig 13)
    #[allow(clippy::disallowed_methods, reason = "the experiment times both join paths")]
    let start = Instant::now();
    let mut quad_counts = vec![0u64; cities];
    for p in &workload.trips {
        for id in index.find_containing(p) {
            quad_counts[id as usize] += 1;
        }
    }
    let quadtree = start.elapsed();
    let quadtree_contains_calls = index.contains_calls();

    // brute force (§VI.C's Hive MapReduce execution shape)
    #[allow(clippy::disallowed_methods, reason = "the experiment times both join paths")]
    let start = Instant::now();
    let mut brute_counts = vec![0u64; cities];
    for p in &workload.trips {
        for id in index.find_containing_brute_force(p) {
            brute_counts[id as usize] += 1;
        }
    }
    let brute_force = start.elapsed();
    let brute_contains_calls = index.contains_calls() - quadtree_contains_calls;

    Ok(GeoResult {
        quadtree,
        brute_force,
        quadtree_contains_calls,
        brute_contains_calls,
        quad_counts,
        brute_counts,
    })
}

/// The gates of one run, both on exact counts: the two paths count the same
/// trips in every city, and the QuadTree leaves at most a tenth of brute
/// force's `st_contains` calls.
fn gates(label: &str, r: &GeoResult) -> Vec<Gate> {
    let differing = r.quad_counts.iter().zip(&r.brute_counts).filter(|(q, b)| q != b).count();
    let calls = format!("{} vs {}", r.quadtree_contains_calls, r.brute_contains_calls);
    vec![
        Gate::new(
            format!("{label}: QuadTree and brute force count the same trips per city"),
            r.quad_counts == r.brute_counts,
            format!("{differing} of {} cities differ", r.brute_counts.len()),
        ),
        Gate::new(
            format!("{label}: QuadTree makes at most 1/10 of the st_contains calls"),
            r.quadtree_contains_calls * 10 <= r.brute_contains_calls,
            calls,
        ),
    ]
}

/// `paper-experiments geo`: wall-clock, gated per size on exact counts.
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== §VI: QuadTree geospatial join vs brute force ===");
    report.line("paper claim: Presto Geospatial plugin >50x faster than brute force\n");
    let mut table = Table::new(
        "trips-in-city counting",
        &[
            "cities",
            "trips",
            "vertices",
            "quadtree",
            "brute force",
            "speedup",
            "st_contains calls (quad vs brute)",
        ],
    );
    for (cities, trips, vertices) in [(500, 20_000, 100), (2_000, 20_000, 200), (5_000, 5_000, 400)]
    {
        let r = run(cities, trips, vertices, 7)?;
        table.row(vec![
            cities.to_string(),
            trips.to_string(),
            vertices.to_string(),
            ms(r.quadtree),
            ms(r.brute_force),
            format!("{:.0}x", r.speedup()),
            format!("{} vs {}", r.quadtree_contains_calls, r.brute_contains_calls),
        ]);
        report.gates.extend(gates(&format!("{cities} cities × {trips} trips"), &r));
    }
    report.line(table.render());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn quadtree_beats_brute_force_substantially() {
        let r = run(2_000, 1_000, 60, 7).unwrap();
        assert_gates(&gates("small", &r));
        assert!(r.speedup() > 2.0, "speedup was only {:.1}x", r.speedup());
    }
}
