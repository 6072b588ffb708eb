//! # qelect-graph — anonymous-network substrate
//!
//! This crate implements the graph-theoretic machinery required by the
//! qualitative leader-election paper *“Can we elect if we cannot compare?”*
//! (Barrière, Flocchini, Fraigniaud, Santoro; SPAA 2003):
//!
//! * **Port-labeled anonymous networks** ([`Graph`]): connected undirected
//!   multigraphs (loops and parallel edges allowed — the Fig. 2(c) gadget
//!   needs both) whose nodes are unlabeled and whose edge *endpoints* carry
//!   locally-distinct port labels.
//! * **Bi-colored instances** ([`bicolored::Bicolored`]): a graph together
//!   with an agent placement `p`, i.e. a black/white node coloring
//!   (black = home-base).
//! * **Equitable partition refinement** ([`refine`]): the 1-WL engine shared
//!   by view computation, automorphism search and canonical labeling.
//! * **Views and symmetricity** ([`view`], [`symmetricity`]): the
//!   Yamashita–Kameda theory used by Theorem 2.1 of the paper.
//! * **Automorphisms and canonical forms** ([`automorphism`], [`canon`]):
//!   individualization-refinement search producing orbit partitions,
//!   generators, and an isomorphism-invariant canonical word — the
//!   deterministic total order `≺` of Lemma 3.1. The pre-worklist kernel
//!   is frozen in [`oracle`] as a differential test oracle.
//! * **Surroundings** ([`surrounding`]): the digraphs `S(u)` of
//!   Definition 3.1, through which agents compute and order the equivalence
//!   classes of `(G, p)`.
//! * **Graph families** ([`families`]): every interconnection topology the
//!   paper names (cycles, hypercubes, toroidal meshes, cube-connected
//!   cycles, wrapped butterflies, star graphs, circulants, complete graphs)
//!   plus the Petersen graph and the counterexample gadgets.
//!
//! Everything in this crate is *global-knowledge* mathematics: it sees node
//! identities and integer port values. The qualitative restriction (colors
//! and port symbols comparable only for equality) is enforced one layer up,
//! in `qelect-agentsim`, which mediates every protocol’s access to the
//! network.
//!
//! ```
//! use qelect_graph::{families, Bicolored};
//! use qelect_graph::surrounding::ordered_classes;
//!
//! // Two antipodal agents on a 6-cycle: classes {0,3} and the whites.
//! let g = families::cycle(6)?;
//! let instance = Bicolored::new(g, &[0, 3])?;
//! let classes = ordered_classes(&instance);
//! let sizes: Vec<usize> = classes.classes.iter().map(|c| c.len()).collect();
//! assert_eq!(sizes, vec![2, 4]);
//! assert_eq!(classes.gcd_of_sizes(), 2); // election impossible (Thm 3.1/4.1)
//! # Ok::<(), qelect_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod automorphism;
pub mod bicolored;
pub mod cache;
pub mod canon;
pub mod digraph;
pub mod dot;
pub mod error;
pub mod families;
pub mod graph;
pub mod labeling;
pub mod oracle;
pub mod refine;
pub mod surrounding;
pub mod symmetricity;
pub mod view;

pub use bicolored::Bicolored;
pub use cache::{canonicalize_cached, ordered_classes_cached, CacheStats};
pub use digraph::ColoredDigraph;
pub use error::GraphError;
pub use graph::{End, Graph, GraphBuilder, Incidence, NodeId, Port};
