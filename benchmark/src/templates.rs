//! The query templates of the four SQL workloads. A template renders SQL
//! text from the seed's literal stream; every literal a template can draw
//! selects the same number of rows (see `data.rs`), so seeds change the
//! text the engine parses and the rows it touches, not how much work it does.

use crate::data::{COUNTRIES, DAYS, DEVICES, NUM_CAMPAIGNS, NUM_CITIES, PRODUCTS, STATUSES};
use crate::digest::Check;
use crate::rng::Rng;

pub struct Template {
    pub name: &'static str,
    /// Reporting class (`class.<class>.p50_ms`).
    pub class: &'static str,
    pub check: Check,
    /// Times the template is issued per pass.
    pub per_pass: usize,
    pub render: fn(&mut Rng) -> String,
}

/// One concrete SQL text drawn from a template.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub template: &'static str,
    pub class: &'static str,
    pub check: Check,
    pub sql: String,
}

/// Render `variants` instances of every template, template-major.
pub fn instantiate(templates: &[Template], variants: usize, seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 0x11e7);
    let mut out = Vec::with_capacity(templates.len() * variants);
    for t in templates {
        let mut seen: Vec<String> = Vec::new();
        for _ in 0..variants {
            // a template with few literals may redraw a text it already has
            let mut sql = (t.render)(&mut rng);
            for _ in 0..16 {
                if !seen.contains(&sql) {
                    break;
                }
                sql = (t.render)(&mut rng);
            }
            seen.push(sql.clone());
            out.push(Instance { template: t.name, class: t.class, check: t.check, sql });
        }
    }
    out
}

fn day(rng: &mut Rng) -> &'static str {
    DAYS[rng.below(DAYS.len())]
}

fn city(rng: &mut Rng) -> usize {
    rng.below(NUM_CITIES)
}

/// Fig 17's 21 production-shaped queries over the nested `trips` table: 4
/// scans (2 of them needles), 5 group-bys, 12 joins to the MySQL dimension.
/// `ORDER BY … LIMIT` carries a tie-breaking key so the answer is unique.
pub fn lake_templates() -> Vec<Template> {
    use Check::{CountOnly, Ordered, Unordered};
    const JOIN: &str = "FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id";
    let t = |name, class, check, render| Template { name, class, check, per_pass: 1, render };
    vec![
        t("q01", "scan", Unordered, |r| {
            format!(
            "SELECT base.driver_uuid, base.client_uuid, base.fare, base.tip, base.distance_km, \
             base.duration_s, base.surge, base.rating FROM trips WHERE datestr = '{}'", day(r))
        }),
        t("q02", "scan", Unordered, |_| {
            "SELECT base.city_id, base.status, base.product, base.workflow, base.features \
             FROM trips"
                .to_string()
        }),
        t("q03", "needle", Unordered, |r| {
            format!(
                "SELECT base.driver_uuid FROM trips WHERE datestr = '{}' AND base.city_id IN ({})",
                day(r),
                city(r)
            )
        }),
        t("q04", "needle", Unordered, |r| {
            format!(
                "SELECT base.client_uuid FROM trips WHERE base.city_id = {} AND base.rating = {}",
                city(r),
                1 + r.below(5)
            )
        }),
        t("q05", "groupby", Unordered, |_| {
            "SELECT base.status, count(*), sum(base.fare), sum(base.tip), avg(base.distance_km) \
             FROM trips GROUP BY 1"
                .to_string()
        }),
        t("q06", "groupby", Ordered, |_| {
            "SELECT base.city_id, sum(base.fare) FROM trips GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 10"
                .to_string()
        }),
        t("q07", "groupby", Unordered, |r| {
            format!(
            "SELECT base.product, avg(base.distance_km) FROM trips WHERE datestr = '{}' GROUP BY 1",
            day(r))
        }),
        t("q08", "groupby", Ordered, |_| {
            "SELECT base.rating, count(*), max(base.tip), min(base.fare), sum(base.duration_s) \
             FROM trips GROUP BY 1 ORDER BY 1"
                .to_string()
        }),
        t("q09", "groupby", Unordered, |_| {
            "SELECT datestr, sum(base.surge * base.fare) FROM trips GROUP BY 1".to_string()
        }),
        t("q10", "join", Ordered, |_| {
            format!(
                "SELECT c.name, count(*), sum(t.base.fare), sum(t.base.tip), avg(t.base.surge) \
             {JOIN} GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5"
            )
        }),
        t("q11", "join", Unordered, |_| {
            format!("SELECT c.region, sum(t.base.fare) {JOIN} GROUP BY 1")
        }),
        t("q12", "join", CountOnly, |r| {
            format!(
            "SELECT c.name, t.base.driver_uuid, t.base.client_uuid, t.base.status, t.base.fare \
             {JOIN} WHERE t.base.city_id = {} LIMIT 20", city(r))
        }),
        t("q13", "join", Unordered, |r| {
            format!(
                "SELECT c.region, avg(t.base.tip) {JOIN} WHERE t.datestr = '{}' GROUP BY 1",
                day(r)
            )
        }),
        t("q14", "join", Ordered, |r| {
            format!(
                "SELECT c.name, max(t.base.fare) {JOIN} WHERE t.base.status = '{}' \
             GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 10",
                STATUSES[r.below(STATUSES.len())]
            )
        }),
        t("q15", "join", Unordered, |r| {
            format!(
                "SELECT c.region, count(*) {JOIN} WHERE t.base.product = '{}' GROUP BY 1",
                PRODUCTS[r.below(PRODUCTS.len())]
            )
        }),
        t("q16", "join", CountOnly, |r| {
            // two cities of different row groups, whatever the draw
            let a = city(r);
            let b = (a + NUM_CITIES / 2) % NUM_CITIES;
            format!(
                "SELECT t.base.driver_uuid, c.name {JOIN} WHERE t.base.city_id IN ({a}, {b}) \
                 AND t.base.rating >= 4 LIMIT 50"
            )
        }),
        t("q17", "join", Ordered, |r| {
            format!(
                "SELECT c.name, sum(t.base.duration_s) {JOIN} WHERE t.datestr = '{}' \
             GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 8",
                day(r)
            )
        }),
        t("q18", "join", Unordered, |_| {
            format!(
                "SELECT c.region, min(t.base.fare), max(t.base.fare), sum(t.base.distance_km), \
             sum(t.base.duration_s), count(*) {JOIN} GROUP BY 1"
            )
        }),
        t("q19", "join", Ordered, |_| {
            "SELECT c.name, count(*) FROM trips t LEFT JOIN mysql.ops.cities c \
             ON t.base.city_id = c.city_id GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5"
                .to_string()
        }),
        t("q20", "join", Unordered, |_| {
            format!("SELECT c.region, count(*) {JOIN} WHERE t.base.surge >= 1.375 GROUP BY 1")
        }),
        t("q21", "join", Ordered, |r| {
            format!(
                "SELECT c.name, avg(t.base.distance_km) {JOIN} WHERE t.base.status = '{}' \
             AND t.datestr = '{}' GROUP BY 1 ORDER BY 1 LIMIT 10",
                STATUSES[r.below(STATUSES.len())],
                day(r)
            )
        }),
    ]
}

fn country(rng: &mut Rng) -> &'static str {
    COUNTRIES[rng.below(COUNTRIES.len())]
}

fn device(rng: &mut Rng) -> &'static str {
    DEVICES[rng.below(DEVICES.len())]
}

fn campaign(rng: &mut Rng) -> String {
    format!("camp{:02}", rng.below(NUM_CAMPAIGNS))
}

/// Fig 16's dashboard mix on the Druid `events` table: 12 aggregations (9
/// predicated), 5 `LIMIT` queries (4 predicated), 3 projection scans (1
/// predicated) — 14 predicates, 5 limits, 12 aggregations as in the paper —
/// plus one ungrouped total, so that with 21 equally weighted templates the
/// median falls inside one template's block of samples, not between two.
pub fn realtime_templates() -> Vec<Template> {
    use Check::{CountOnly, Unordered};
    const LIMIT_COLUMNS: &str = "SELECT country, device, clicks FROM events";
    let t = |name, class, check, render| Template { name, class, check, per_pass: 1, render };
    vec![
        t("q01", "agg", Unordered, |r| {
            format!(
                "SELECT device, count(*) FROM events WHERE country = '{}' GROUP BY device",
                country(r)
            )
        }),
        t("q02", "agg", Unordered, |r| {
            format!(
                "SELECT device, sum(clicks) FROM events WHERE country = '{}' GROUP BY device",
                country(r)
            )
        }),
        t("q03", "agg", Unordered, |r| {
            format!(
                "SELECT country, count(*), sum(clicks) FROM events WHERE device = '{}' \
             GROUP BY country",
                device(r)
            )
        }),
        t("q04", "agg", Unordered, |r| {
            format!(
                "SELECT country, max(revenue) FROM events WHERE device = '{}' GROUP BY country",
                device(r)
            )
        }),
        t("q05", "agg", Unordered, |r| {
            format!(
                "SELECT count(*) FROM events WHERE country = '{}' AND device = '{}'",
                country(r),
                device(r)
            )
        }),
        t("q06", "agg", Unordered, |r| {
            format!(
                "SELECT country, sum(clicks) FROM events WHERE campaign = '{}' GROUP BY country",
                campaign(r)
            )
        }),
        t("q07", "agg", Unordered, |r| {
            format!(
                "SELECT campaign, count(*) FROM events WHERE country = '{}' GROUP BY campaign",
                country(r)
            )
        }),
        t("q08", "agg", Unordered, |r| {
            format!(
                "SELECT country, min(revenue) FROM events WHERE device = '{}' GROUP BY country",
                device(r)
            )
        }),
        t("q09", "agg", Unordered, |_| {
            "SELECT device, count(*) FROM events WHERE clicks >= 90 GROUP BY device".to_string()
        }),
        t("q10", "agg", Unordered, |_| {
            "SELECT country, count(*), sum(clicks) FROM events GROUP BY country".to_string()
        }),
        t("q11", "agg", Unordered, |_| {
            "SELECT device, max(revenue), min(revenue) FROM events GROUP BY device".to_string()
        }),
        t("q12", "agg", Unordered, |_| "SELECT sum(clicks), count(*) FROM events".to_string()),
        t("q13", "limit", CountOnly, |r| {
            format!("{LIMIT_COLUMNS} WHERE country = '{}' LIMIT 100", country(r))
        }),
        t("q14", "limit", CountOnly, |r| {
            format!("{LIMIT_COLUMNS} WHERE device = '{}' LIMIT 50", device(r))
        }),
        t("q15", "limit", CountOnly, |r| {
            format!("{LIMIT_COLUMNS} WHERE campaign = '{}' LIMIT 200", campaign(r))
        }),
        t("q16", "limit", CountOnly, |r| {
            format!("{LIMIT_COLUMNS} WHERE country = '{}' LIMIT 20", country(r))
        }),
        t("q17", "limit", CountOnly, |_| format!("{LIMIT_COLUMNS} LIMIT 100")),
        t("q18", "rawscan", Unordered, |r| {
            format!("SELECT campaign, revenue FROM events WHERE campaign = '{}'", campaign(r))
        }),
        t("q19", "rawscan", Unordered, |_| "SELECT country FROM events".to_string()),
        t("q20", "rawscan", Unordered, |_| "SELECT clicks FROM events".to_string()),
        t("q21", "agg", Unordered, |_| "SELECT count(*) FROM events".to_string()),
    ]
}

/// Executor ladder over an in-memory TPC-H `lineitem`: one baseline, three
/// filter selectivities, two group-by cardinalities, a join, a sort, a top-N.
/// `quantity` is uniform on 1..=50 and `discount` on 0.00..=0.10, so a
/// `BETWEEN` of fixed width has a fixed selectivity wherever it starts.
pub fn mem_exec_templates() -> Vec<Template> {
    use Check::{Ordered, Unordered};
    const REVENUE: &str = "SELECT sum(extendedprice * (1 - discount)) FROM lineitem WHERE";
    // Issued equally often, the slowest of nine templates (`join`) would be 11%
    // of the ops and p98 would sit far out in the tail of its latencies, which
    // neighbours' bursts move. Issued once per 25 ops it is 4% of them, and
    // p98 is its median — as with 21 equally weighted templates.
    let t = |name, check, render| Template {
        name,
        class: name,
        check,
        per_pass: if name == "join" { 1 } else { 3 },
        render,
    };
    vec![
        t("count_star", Unordered, |_| "SELECT count(*) FROM lineitem".to_string()),
        // 1/50 of quantity × 6/11 of discount ≈ 1.1%
        t("filter_sel01", Unordered, |r| {
            format!("{REVENUE} quantity = {} AND discount BETWEEN 0.02 AND 0.07", 1 + r.below(50))
        }),
        t("filter_sel50", Unordered, |r| {
            let lo = 1 + r.below(26);
            format!("{REVENUE} quantity BETWEEN {lo} AND {}", lo + 24)
        }),
        t("filter_sel90", Unordered, |r| {
            let lo = 1 + r.below(6);
            format!("{REVENUE} quantity BETWEEN {lo} AND {}", lo + 44)
        }),
        t("agg_low_ndv", Unordered, |_| {
            "SELECT returnflag, linestatus, count(*), sum(quantity), avg(extendedprice) \
             FROM lineitem GROUP BY 1, 2"
                .to_string()
        }),
        t("agg_high_ndv", Unordered, |_| {
            "SELECT orderkey, count(*), sum(extendedprice) FROM lineitem GROUP BY 1".to_string()
        }),
        t("join", Unordered, |_| {
            "SELECT count(*), sum(a.extendedprice + b.tax) FROM lineitem a JOIN lineitem b \
             ON a.orderkey = b.orderkey AND a.linenumber = b.linenumber"
                .to_string()
        }),
        t("sort", Ordered, |_| {
            "SELECT orderkey, linenumber, extendedprice FROM lineitem \
             ORDER BY extendedprice DESC, orderkey, linenumber"
                .to_string()
        }),
        t("topn", Ordered, |_| {
            "SELECT orderkey, linenumber, extendedprice FROM lineitem \
             ORDER BY extendedprice DESC, orderkey, linenumber LIMIT 100"
                .to_string()
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_sets_have_the_shape_of_the_paper_figures() {
        let lake = lake_templates();
        assert_eq!(lake.len(), 21);
        let count = |class: &str| lake.iter().filter(|t| t.class == class).count();
        assert_eq!(
            (count("scan"), count("needle"), count("groupby"), count("join")),
            (2, 2, 5, 12)
        );

        let rt = realtime_templates();
        assert_eq!(rt.len(), 21);
        let sql: Vec<String> = rt.iter().map(|t| (t.render)(&mut Rng::new(1, 1))).collect();
        assert_eq!(sql.iter().filter(|s| s.contains("LIMIT")).count(), 5);
        assert_eq!(rt.iter().filter(|t| t.class == "rawscan").count(), 3);

        let ladder = mem_exec_templates();
        assert_eq!(ladder.len(), 9);
        assert_eq!(ladder.iter().map(|t| t.per_pass).sum::<usize>(), 25);
    }

    #[test]
    fn instances_are_pure_in_the_seed_and_vary_with_it() {
        let a = instantiate(&lake_templates(), 3, 1);
        let b = instantiate(&lake_templates(), 3, 1);
        let c = instantiate(&lake_templates(), 3, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 63);
        // variants of one template are distinct texts where its literals allow
        assert_ne!(a[6].sql, a[7].sql); // q03: day × 48 cities
        assert!(a.iter().all(|i| !i.sql.contains('{')));
    }
}
