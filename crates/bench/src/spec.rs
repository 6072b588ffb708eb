//! The shared `family:params@agents` instance-spec grammar.
//!
//! Every `qelectctl` subcommand (elect/audit/sweep/faults/serve/load)
//! and the `qelectd` wire schema name instances the same way:
//!
//! ```text
//! family[:param[:param…]][@a0,a1,…]
//! ```
//!
//! e.g. `cycle:12@0,1,3`, `circulant:12:1,3@0,1,3`, `petersen@0,1`.
//! The family table mirrors `qelect_graph::families`:
//!
//! ```text
//! cycle:N | path:N | complete:N | hypercube:D | torus:AxB[xC…]
//! | petersen | gp:N:K | star:N | circulant:N:o1,o2 | ccc:D
//! | butterfly:D | stargraph:K | random:N:P:SEED | tree:D | grid:WxH
//! ```
//!
//! Historically this grammar was duplicated between `cli.rs` and a
//! string-prefix hack in `report.rs`; this module is now the single
//! implementation, with typed errors ([`SpecError`]) so callers can
//! report *what* was wrong instead of just "bad spec".

use qelect_graph::{families, Bicolored, Graph};

/// Why a spec failed to parse or build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec was empty.
    Empty,
    /// The family name (or its parameter arity) is not in the table.
    UnknownFamily {
        /// The offending spec.
        spec: String,
    },
    /// A numeric parameter did not parse.
    BadParam {
        /// What the parameter was (e.g. "cycle size").
        what: String,
        /// The offending token.
        value: String,
    },
    /// The home-base list after `@` did not parse.
    BadAgents {
        /// The offending token.
        value: String,
    },
    /// The family constructor rejected the parameters (e.g. `cycle:2`).
    Family {
        /// The offending spec.
        spec: String,
        /// The constructor's message.
        msg: String,
    },
    /// The home-base placement is invalid on the built graph
    /// (out-of-range node or a collision).
    Placement {
        /// The instance key.
        key: String,
        /// The placement error message.
        msg: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty instance spec"),
            SpecError::UnknownFamily { spec } => write!(f, "unknown family spec '{spec}'"),
            SpecError::BadParam { what, value } => write!(f, "bad {what}: '{value}'"),
            SpecError::BadAgents { value } => write!(f, "bad home-base list '{value}'"),
            SpecError::Family { spec, msg } => write!(f, "bad family '{spec}': {msg}"),
            SpecError::Placement { key, msg } => write!(f, "bad instance '{key}': {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn parse_usize(s: &str, what: &str) -> Result<usize, SpecError> {
    s.parse().map_err(|_| SpecError::BadParam {
        what: what.to_string(),
        value: s.to_string(),
    })
}

/// The family name of a spec: everything up to the first `:` or `@`.
pub fn family_of(spec: &str) -> &str {
    spec.split([':', '@']).next().unwrap_or(spec)
}

/// Parse (and build) a bare family spec like `cycle:9` or `torus:3x4`
/// — no `@agents` suffix allowed here.
pub fn parse_family(spec: &str) -> Result<Graph, SpecError> {
    if spec.is_empty() {
        return Err(SpecError::Empty);
    }
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let unknown = || SpecError::UnknownFamily {
        spec: spec.to_string(),
    };
    let g = match (name, rest.as_slice()) {
        ("cycle", [n]) => families::cycle(parse_usize(n, "cycle size")?),
        ("path", [n]) => families::path(parse_usize(n, "path size")?),
        ("complete", [n]) => families::complete(parse_usize(n, "complete size")?),
        ("hypercube", [d]) => families::hypercube(parse_usize(d, "dimension")?),
        ("torus", [dims]) => {
            let dims: Result<Vec<usize>, _> = dims
                .split('x')
                .map(|d| parse_usize(d, "torus dim"))
                .collect();
            families::torus(&dims?)
        }
        ("petersen", []) => families::petersen(),
        ("gp", [n, k]) => {
            families::generalized_petersen(parse_usize(n, "gp n")?, parse_usize(k, "gp k")?)
        }
        ("star", [n]) => families::star(parse_usize(n, "leaf count")?),
        ("circulant", [n, offs]) => {
            let offsets: Result<Vec<usize>, _> =
                offs.split(',').map(|o| parse_usize(o, "offset")).collect();
            families::circulant(parse_usize(n, "size")?, &offsets?)
        }
        ("ccc", [d]) => families::cube_connected_cycles(parse_usize(d, "dimension")?),
        ("butterfly", [d]) => families::wrapped_butterfly(parse_usize(d, "dimension")?),
        ("stargraph", [k]) => families::star_graph(parse_usize(k, "k")?),
        ("random", [n, p, seed]) => {
            let p: f64 = p.parse().map_err(|_| SpecError::BadParam {
                what: "p".to_string(),
                value: p.to_string(),
            })?;
            families::random_connected(
                parse_usize(n, "size")?,
                p,
                parse_usize(seed, "seed")? as u64,
            )
        }
        ("tree", [d]) => families::binary_tree(parse_usize(d, "depth")?),
        ("grid", [dims]) => {
            let mut it = dims.split('x');
            let w = parse_usize(it.next().unwrap_or(""), "grid width")?;
            let h = parse_usize(it.next().unwrap_or(""), "grid height")?;
            families::grid(w, h)
        }
        _ => return Err(unknown()),
    };
    g.map_err(|e| SpecError::Family {
        spec: spec.to_string(),
        msg: e.to_string(),
    })
}

/// A parsed instance spec: the family part plus explicit home-bases.
///
/// Parsing builds the graph eagerly, so holding an `InstanceSpec` means
/// the spec is known-good up to placement; [`InstanceSpec::bicolored`]
/// performs the placement check.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// The family spec as written (without the `@agents` suffix).
    pub family_spec: String,
    /// The constructed graph.
    pub graph: Graph,
    /// Home-base nodes (defaults to `[0]` when no `@` suffix is given).
    pub agents: Vec<usize>,
}

impl InstanceSpec {
    /// Parse `family[:params…][@a0,a1,…]`.
    pub fn parse(spec: &str) -> Result<InstanceSpec, SpecError> {
        let (family_spec, agents) = match spec.split_once('@') {
            Some((fam, list)) => {
                let parsed: Result<Vec<usize>, _> = list
                    .split(',')
                    .map(|a| {
                        a.parse::<usize>().map_err(|_| SpecError::BadAgents {
                            value: list.to_string(),
                        })
                    })
                    .collect();
                (fam, parsed?)
            }
            None => (spec, vec![0usize]),
        };
        if agents.is_empty() {
            return Err(SpecError::BadAgents {
                value: spec.to_string(),
            });
        }
        let graph = parse_family(family_spec)?;
        Ok(InstanceSpec {
            family_spec: family_spec.to_string(),
            graph,
            agents,
        })
    }

    /// The graph family (the spec up to the first `:`).
    pub fn family(&self) -> &str {
        family_of(&self.family_spec)
    }

    /// Stable instance key, e.g. `cycle:12@0,1,3` — parseable back by
    /// [`InstanceSpec::parse`].
    pub fn key(&self) -> String {
        let agents: Vec<String> = self.agents.iter().map(|a| a.to_string()).collect();
        format!("{}@{}", self.family_spec, agents.join(","))
    }

    /// Place the agents, checking home-base validity.
    pub fn bicolored(&self) -> Result<Bicolored, SpecError> {
        Bicolored::new(self.graph.clone(), &self.agents).map_err(|e| SpecError::Placement {
            key: self.key(),
            msg: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family() {
        for spec in [
            "cycle:5",
            "path:4",
            "complete:4",
            "hypercube:3",
            "torus:3x4",
            "petersen",
            "gp:7:2",
            "star:4",
            "circulant:8:1,3",
            "ccc:3",
            "butterfly:3",
            "stargraph:3",
            "random:8:0.3:7",
            "tree:2",
            "grid:3x3",
        ] {
            assert!(parse_family(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn typed_errors_discriminate() {
        assert_eq!(parse_family(""), Err(SpecError::Empty));
        assert!(matches!(
            parse_family("nosuch:5"),
            Err(SpecError::UnknownFamily { .. })
        ));
        assert!(matches!(
            parse_family("cycle:x"),
            Err(SpecError::BadParam { .. })
        ));
        // Wrong arity is an unknown spec, not a bad parameter.
        assert!(matches!(
            parse_family("cycle:5:5"),
            Err(SpecError::UnknownFamily { .. })
        ));
        // The constructor's own validation surfaces as Family.
        assert!(matches!(
            parse_family("cycle:1"),
            Err(SpecError::Family { .. })
        ));
    }

    #[test]
    fn overflowing_family_sizes_are_typed_errors() {
        for spec in [
            "tree:64",
            "tree:70@0,5",
            "tree:18446744073709551615",
            "star:18446744073709551615",
            "grid:4294967296x4294967297",
            "torus:4294967296x4294967296",
            "gp:9223372036854775808:1",
        ] {
            assert!(
                matches!(InstanceSpec::parse(spec), Err(SpecError::Family { .. })),
                "{spec}"
            );
        }
    }

    #[test]
    fn instance_spec_roundtrips_through_key() {
        let spec = InstanceSpec::parse("circulant:12:1,3@0,1,3").unwrap();
        assert_eq!(spec.family(), "circulant");
        assert_eq!(spec.family_spec, "circulant:12:1,3");
        assert_eq!(spec.agents, vec![0, 1, 3]);
        assert_eq!(spec.key(), "circulant:12:1,3@0,1,3");
        let again = InstanceSpec::parse(&spec.key()).unwrap();
        assert_eq!(again.key(), spec.key());
        assert_eq!(again.graph.n(), spec.graph.n());
    }

    #[test]
    fn instance_spec_defaults_home_base_zero() {
        let spec = InstanceSpec::parse("petersen").unwrap();
        assert_eq!(spec.agents, vec![0]);
        assert_eq!(spec.key(), "petersen@0");
        assert_eq!(spec.family(), "petersen");
    }

    #[test]
    fn family_of_strips_params_and_agents() {
        assert_eq!(family_of("cycle:12@0,1"), "cycle");
        assert_eq!(family_of("petersen@0,1"), "petersen");
        assert_eq!(family_of("petersen"), "petersen");
    }

    #[test]
    fn instance_spec_rejects_bad_agents_and_placements() {
        assert!(matches!(
            InstanceSpec::parse("cycle:6@x"),
            Err(SpecError::BadAgents { .. })
        ));
        assert!(matches!(
            InstanceSpec::parse("cycle:6@"),
            Err(SpecError::BadAgents { .. })
        ));
        // Out-of-range home-base parses but fails placement.
        let spec = InstanceSpec::parse("cycle:6@0,99").unwrap();
        assert!(matches!(spec.bicolored(), Err(SpecError::Placement { .. })));
        // Colliding home-bases too.
        let spec = InstanceSpec::parse("cycle:6@2,2").unwrap();
        assert!(spec.bicolored().is_err());
    }

    #[test]
    fn bicolored_builds_valid_placements() {
        let spec = InstanceSpec::parse("cycle:6@0,3").unwrap();
        let bc = spec.bicolored().unwrap();
        assert_eq!(bc.r(), 2);
        assert_eq!(bc.n(), 6);
    }
}
