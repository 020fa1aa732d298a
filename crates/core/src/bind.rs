//! Runtime binding of logical annotations to physical sites (§2.1).
//!
//! "At runtime, the logical annotations are bound to actual sites in the
//! network. First the locations of the display and scan operators are
//! resolved; then, the locations of the other operators are resolved given
//! their annotations."
//!
//! Binding is a fixpoint over the annotation references: `client` and
//! `primary copy` resolve immediately; `consumer` copies the parent's
//! site, `producer`/`inner relation`/`outer relation` copy a child's.
//! Well-formed plans always reach the fixpoint; ill-formed plans (a
//! two-node cycle) are reported as [`BindError::Cycle`].

use std::fmt;

use csqp_catalog::{Catalog, SiteId};

use crate::annotation::Annotation;
use crate::plan::{LogicalOp, NodeId, Plan};

/// What binding needs to know about the runtime environment.
#[derive(Debug, Clone, Copy)]
pub struct BindContext<'a> {
    /// Placement of primary copies (and cache state, unused here).
    pub catalog: &'a Catalog,
    /// The site at which the query was submitted (the client).
    pub query_site: SiteId,
}

/// Binding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The plan has an annotation cycle (it is not well-formed).
    Cycle {
        /// Nodes left unresolved when the fixpoint stalled.
        unresolved: Vec<NodeId>,
    },
    /// The plan is structurally broken: an annotation refers to a child
    /// slot or parent that does not exist. `Plan::validate_structure`
    /// catches these before binding; this arm reports them instead of
    /// panicking when a caller skips validation.
    Malformed {
        /// The node whose annotation could not be resolved.
        node: NodeId,
        /// What was missing.
        reason: String,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Cycle { unresolved } => write!(
                f,
                "annotation cycle: {} nodes unresolved ({:?})",
                unresolved.len(),
                unresolved
            ),
            BindError::Malformed { node, reason } => {
                write!(f, "malformed plan at {node:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// A plan together with the physical site of every operator.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPlan {
    /// The annotated plan.
    pub plan: Plan,
    /// Physical site per arena slot (entries for unreachable slots are the
    /// client and never read).
    pub sites: Vec<SiteId>,
}

impl BoundPlan {
    /// Site of a node.
    #[inline]
    pub fn site(&self, id: NodeId) -> SiteId {
        self.sites[id.index()]
    }

    /// Number of reachable operators bound to the client.
    pub fn ops_at_client(&self) -> usize {
        self.plan
            .postorder()
            .into_iter()
            .filter(|&id| self.site(id).is_client())
            .count()
    }

    /// One-line rendering with sites, e.g.
    /// `(display@client (join@server1 …))`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_node(self.plan.root(), &mut s);
        s
    }

    /// Render `child`, or a `?` placeholder when the slot is empty — a
    /// renderer must not panic even on a plan that lost an input.
    fn render_child(&self, child: Option<NodeId>, out: &mut String) {
        match child {
            Some(c) => self.render_node(c, out),
            None => out.push('?'),
        }
    }

    fn render_node(&self, id: NodeId, out: &mut String) {
        use fmt::Write;
        let n = self.plan.node(id);
        let site = self.site(id);
        match n.op {
            LogicalOp::Display => {
                let _ = write!(out, "(display@{site} ");
                self.render_child(n.children[0], out);
                out.push(')');
            }
            LogicalOp::Join => {
                let _ = write!(out, "(join@{site} ");
                self.render_child(n.children[0], out);
                out.push(' ');
                self.render_child(n.children[1], out);
                out.push(')');
            }
            LogicalOp::Select { rel } => {
                let _ = write!(out, "(select {rel}@{site} ");
                self.render_child(n.children[0], out);
                out.push(')');
            }
            LogicalOp::Aggregate { groups } => {
                let _ = write!(out, "(agg {groups}@{site} ");
                self.render_child(n.children[0], out);
                out.push(')');
            }
            LogicalOp::Scan { rel } => {
                let _ = write!(out, "(scan {rel}@{site})");
            }
        }
    }
}

/// Bind every operator of `plan` to a physical site.
///
/// ```
/// use csqp_core::{bind, Annotation, BindContext, JoinTree};
/// use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId};
///
/// let query = QuerySpec::new(
///     vec![Relation::benchmark(RelId(0), "A"), Relation::benchmark(RelId(1), "B")],
///     vec![JoinEdge { a: RelId(0), b: RelId(1), selectivity: 1e-4 }],
/// );
/// let mut catalog = Catalog::new(2);
/// catalog.place(RelId(0), SiteId::server(1));
/// catalog.place(RelId(1), SiteId::server(2));
///
/// // Query-shipping plan: scans at primary copies, join at its inner's site.
/// let plan = JoinTree::left_deep(&[RelId(0), RelId(1)])
///     .into_plan(&query, Annotation::InnerRel, Annotation::PrimaryCopy);
/// let bound = bind(&plan, BindContext { catalog: &catalog, query_site: SiteId::CLIENT })?;
/// assert_eq!(bound.site(plan.join_nodes()[0]), SiteId::server(1));
/// // After migration the *same* annotated plan binds differently.
/// catalog.place(RelId(0), SiteId::server(2));
/// let rebound = bind(&plan, BindContext { catalog: &catalog, query_site: SiteId::CLIENT })?;
/// assert_eq!(rebound.site(plan.join_nodes()[0]), SiteId::server(2));
/// # Ok::<(), csqp_core::BindError>(())
/// ```
pub fn bind(plan: &Plan, ctx: BindContext<'_>) -> Result<BoundPlan, BindError> {
    Ok(BoundPlan {
        plan: plan.clone(),
        sites: bind_sites(plan, ctx)?,
    })
}

/// The physical site of every arena slot of `plan`, as [`bind`] resolves
/// them, without copying the plan. Entries for unreachable slots are the
/// query site and never read.
pub fn bind_sites(plan: &Plan, ctx: BindContext<'_>) -> Result<Vec<SiteId>, BindError> {
    let order = plan.postorder();
    let parents = plan.parents();
    let mut sites: Vec<Option<SiteId>> = vec![None; plan.arena_len()];

    // Phase 1: display and scans resolve directly.
    for &id in &order {
        let n = plan.node(id);
        sites[id.index()] = match (n.op, n.ann) {
            (LogicalOp::Display, _) => Some(ctx.query_site),
            (LogicalOp::Scan { .. }, Annotation::Client) => Some(ctx.query_site),
            (LogicalOp::Scan { rel }, Annotation::PrimaryCopy) => {
                Some(ctx.catalog.primary_site(rel))
            }
            _ => None,
        };
    }

    // Phase 2: fixpoint over the annotation references.
    loop {
        let mut progress = false;
        for &id in &order {
            if sites[id.index()].is_some() {
                continue;
            }
            let n = plan.node(id);
            let referent = match n.ann {
                Annotation::Consumer => match parents[id.index()] {
                    Some((p, _)) => p,
                    None => {
                        return Err(BindError::Malformed {
                            node: id,
                            reason: "'consumer' annotation on the root: no parent to follow".into(),
                        })
                    }
                },
                ann => match ann.points_down_at().and_then(|slot| n.children[slot]) {
                    Some(c) => c,
                    None => {
                        return Err(BindError::Malformed {
                            node: id,
                            reason: format!(
                                "annotation '{ann}' on {:?} has no child to follow",
                                n.op
                            ),
                        })
                    }
                },
            };
            if let Some(site) = sites[referent.index()] {
                sites[id.index()] = Some(site);
                progress = true;
            }
        }
        if order.iter().all(|id| sites[id.index()].is_some()) {
            break;
        }
        if !progress {
            return Err(BindError::Cycle {
                unresolved: order
                    .iter()
                    .copied()
                    .filter(|id| sites[id.index()].is_none())
                    .collect(),
            });
        }
    }

    Ok(sites
        .into_iter()
        .map(|s| s.unwrap_or(ctx.query_site))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JoinTree;
    use csqp_catalog::{JoinEdge, QuerySpec, RelId, Relation};

    fn chain(n: u32) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: 1e-4,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    fn catalog_two_servers() -> Catalog {
        let mut c = Catalog::new(2);
        c.place(RelId(0), SiteId::server(1));
        c.place(RelId(1), SiteId::server(2));
        c.place(RelId(2), SiteId::server(1));
        c
    }

    #[test]
    fn data_shipping_binds_everything_to_client() {
        let q = chain(3);
        let cat = catalog_two_servers();
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let bound = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        for id in plan.postorder() {
            assert!(bound.site(id).is_client());
        }
        assert_eq!(bound.ops_at_client(), 6); // display + 2 joins + 3 scans
    }

    #[test]
    fn query_shipping_binds_joins_to_servers() {
        let q = chain(3);
        let cat = catalog_two_servers();
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        let bound = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        // Scans at their primary copies.
        for scan in plan.scan_nodes() {
            let LogicalOp::Scan { rel } = plan.node(scan).op else {
                unreachable!()
            };
            assert_eq!(bound.site(scan), cat.primary_site(rel));
        }
        // Left-deep with inner-relation annotations: every join follows
        // its left child; the bottom join sits where R0 lives (server 1).
        let joins = plan.join_nodes();
        assert_eq!(bound.site(joins[0]), SiteId::server(1));
        assert_eq!(bound.site(joins[1]), SiteId::server(1));
        // Display at the client.
        assert!(bound.site(plan.root()).is_client());
        assert_eq!(bound.ops_at_client(), 1);
    }

    #[test]
    fn outer_rel_follows_right_child() {
        let q = chain(2);
        let cat = catalog_two_servers();
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::OuterRel,
            Annotation::PrimaryCopy,
        );
        let bound = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        let join = plan.join_nodes()[0];
        assert_eq!(bound.site(join), SiteId::server(2));
    }

    #[test]
    fn consumer_chain_resolves_through_display() {
        // join[consumer] under display: resolves to the client even though
        // its children are at servers — hybrid shipping mixing sites.
        let q = chain(2);
        let cat = catalog_two_servers();
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let bound = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        let join = plan.join_nodes()[0];
        assert!(bound.site(join).is_client());
        assert!(bound.render().contains("(scan R0@server1)"));
        assert!(bound.render().contains("(scan R1@server2)"));
    }

    #[test]
    fn cycle_is_reported() {
        let q = chain(3);
        let cat = catalog_two_servers();
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let joins = plan.join_nodes();
        // top join points down at bottom join; bottom join points up.
        plan.node_mut(joins[1]).ann = Annotation::InnerRel;
        plan.node_mut(joins[0]).ann = Annotation::Consumer;
        let err = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap_err();
        let BindError::Cycle { unresolved } = err else {
            panic!("expected a cycle, got {err}");
        };
        assert_eq!(unresolved.len(), 2);
    }

    #[test]
    fn malformed_plan_is_reported_not_panicked() {
        use crate::plan::{LogicalOp, PlanNode};
        // A lone join with a down-pointing annotation but no children:
        // binding must return Malformed instead of panicking.
        let cat = catalog_two_servers();
        let mut plan = Plan::from_parts(Vec::new(), NodeId(0));
        let j = plan.push(PlanNode {
            op: LogicalOp::Join,
            ann: Annotation::InnerRel,
            children: [None, None],
        });
        let plan = Plan::from_parts(vec![plan.node(j).clone()], j);
        let err = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap_err();
        assert!(matches!(err, BindError::Malformed { .. }), "{err}");
    }

    #[test]
    fn rebinding_after_migration_moves_operators() {
        // The §5 scenario: the same annotated plan binds differently when
        // data migrates.
        let q = chain(2);
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        let mut cat = Catalog::new(2);
        cat.place(RelId(0), SiteId::server(1));
        cat.place(RelId(1), SiteId::server(2));
        let b1 = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        assert_eq!(b1.site(plan.join_nodes()[0]), SiteId::server(1));
        // Migrate R0 to server 2: the join follows.
        cat.place(RelId(0), SiteId::server(2));
        let b2 = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        assert_eq!(b2.site(plan.join_nodes()[0]), SiteId::server(2));
    }
}
