//! Unordered iteration building a scan's output: no digest sink in sight,
//! but the rows come out in the map's order, which varies run-to-run.
use std::collections::HashMap;

pub fn group_rows(groups: &HashMap<u64, u64>, out: &mut Vec<u64>) {
    for (key, count) in groups.iter() {
        out.push(key ^ count);
    }
}
