//! Directed-acyclic-graph substrate for the ride-sharing framework.
//!
//! The paper's offline algorithm (Alg. 1, "GA") repeatedly extracts the
//! maximum-profit source→destination path from a merged task-map DAG, and
//! its LP upper bound prices columns by solving longest-path problems in the
//! same DAGs. Both reduce to one primitive this crate provides:
//! **maximum-weight path in a node- and edge-weighted DAG**, computable in
//! linear time by dynamic programming over a topological order (the paper's
//! §IV-B cites the classic longest-path-in-a-DAG routine).
//!
//! Contents:
//!
//! - [`Dag`]: an append-only adjacency-list DAG with `f64` node and edge
//!   weights and cheap node *disabling* (GA removes the chosen path's nodes
//!   after every iteration — disabling avoids rebuilding the graph),
//! - [`topological_order`] / [`is_acyclic`]: Kahn's algorithm,
//! - [`Dag::max_profit_path`]: the DP, with an overload taking per-call
//!   weight overrides for column-generation pricing
//!   ([`Dag::max_profit_path_with`]).
//!
//! # Examples
//!
//! ```
//! use rideshare_graph::Dag;
//!
//! // A diamond: 0 -> {1, 2} -> 3, where node 2 is more profitable.
//! let mut dag = Dag::new(4);
//! dag.set_node_weight(1, 5.0);
//! dag.set_node_weight(2, 9.0);
//! dag.add_edge(0, 1, 0.0);
//! dag.add_edge(0, 2, 0.0);
//! dag.add_edge(1, 3, 0.0);
//! dag.add_edge(2, 3, 0.0);
//!
//! let best = dag.max_profit_path(0, 3).expect("path exists");
//! assert_eq!(best.nodes, vec![0, 2, 3]);
//! assert_eq!(best.profit, 9.0);
//! ```

// Lint levels (unsafe_code, missing_docs) come from [workspace.lints].

mod dag;
mod path;
mod topo;

pub use dag::Dag;
pub use path::PathResult;
pub use topo::{is_acyclic, topological_order};
