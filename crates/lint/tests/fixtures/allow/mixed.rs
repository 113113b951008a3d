//! Trailing directives are line-scoped; a standalone directive covers the
//! next statement — however many lines it spans — and nothing after it.
use presto_common::metrics::CounterSet;

pub fn suppressed(metrics: &CounterSet) {
    metrics.incr("fixture.a"); // lint:allow(metrics-registry)
}

pub fn bare(metrics: &CounterSet) {
    metrics.incr("fixture.b");
}

pub fn statement_scoped(metrics: &CounterSet, n: u64) {
    // lint:allow(metrics-registry)
    for m in [metrics] {
        m.incr("fixture.c");
        m.add("fixture.d", n);
    }
    metrics.incr("fixture.e");
}
