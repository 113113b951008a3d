//! The plan fragmenter (§III: "The fragmenter divides the plan into
//! fragments. Each running plan fragment is called a stage, which could be
//! executed in parallel. Stage consists of tasks, which are processing one
//! or many splits of input data.").
//!
//! Fragmentation model: every [`LogicalPlan::TableScan`] becomes its own
//! *leaf fragment* (whose tasks are parallelized over connector splits by
//! the scheduler), and is replaced in the parent plan by a
//! [`LogicalPlan::RemoteSource`]. Fragment 0 is the root/output fragment.

use presto_common::Result;

use crate::logical::LogicalPlan;

/// One plan fragment (a stage template).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFragment {
    /// Fragment id; 0 is the root.
    pub id: u32,
    /// The fragment's plan; leaf fragments hold the scan, upper fragments
    /// reference children through `RemoteSource`.
    pub plan: LogicalPlan,
}

impl PlanFragment {
    /// True when this fragment scans a connector (parallelizable by split).
    pub fn is_leaf_scan(&self) -> bool {
        fn has_scan(p: &LogicalPlan) -> bool {
            matches!(p, LogicalPlan::TableScan { .. }) || p.children().into_iter().any(has_scan)
        }
        has_scan(&self.plan)
    }
}

/// Split `plan` into fragments. Returns fragments ordered root-first;
/// fragment ids match `RemoteSource.fragment` references.
pub fn fragment_plan(plan: LogicalPlan) -> Result<Vec<PlanFragment>> {
    let mut fragments = Vec::new();
    let mut root = plan;
    extract_scans(&mut root, &mut fragments)?;
    fragments.insert(0, PlanFragment { id: 0, plan: root });
    Ok(fragments)
}

/// Replace each scan under `plan` with a RemoteSource, pushing the scan as
/// fragment `fragments.len() + 1`; the root, fragment 0, goes in after.
fn extract_scans(plan: &mut LogicalPlan, fragments: &mut Vec<PlanFragment>) -> Result<()> {
    if !matches!(plan, LogicalPlan::TableScan { .. }) {
        return plan.children_mut().into_iter().try_for_each(|c| extract_scans(c, fragments));
    }
    let id = fragments.len() as u32 + 1;
    let source = LogicalPlan::RemoteSource { fragment: id, schema: plan.output_schema()? };
    fragments.push(PlanFragment { id, plan: std::mem::replace(plan, source) });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{DataType, Field, Schema};
    use presto_connectors::{ColumnPath, ScanRequest};

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::TableScan {
            catalog: "memory".into(),
            schema: "default".into(),
            table: table.into(),
            table_schema: Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap(),
            request: ScanRequest::project(vec![ColumnPath::whole("x")]),
        }
    }

    #[test]
    fn join_fragments_into_three_stages() {
        let plan =
            LogicalPlan::join(scan("a"), scan("b"), crate::logical::JoinKind::Inner, vec![], None)
                .unwrap();
        let fragments = fragment_plan(plan).unwrap();
        assert_eq!(fragments.len(), 3);
        // root references fragments 1 and 2
        let LogicalPlan::Join { left, right, .. } = &fragments[0].plan else {
            panic!("root should be the join");
        };
        assert!(matches!(**left, LogicalPlan::RemoteSource { fragment: 1, .. }));
        assert!(matches!(**right, LogicalPlan::RemoteSource { fragment: 2, .. }));
        assert!(fragments[1].is_leaf_scan());
        assert!(fragments[2].is_leaf_scan());
        assert!(!fragments[0].is_leaf_scan());
    }

    #[test]
    fn scan_only_plan_has_two_fragments() {
        let fragments =
            fragment_plan(LogicalPlan::Limit { input: Box::new(scan("a")), count: 1 }).unwrap();
        assert_eq!(fragments.len(), 2);
        assert!(matches!(fragments[0].plan, LogicalPlan::Limit { .. }));
    }
}
