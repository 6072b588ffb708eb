//! Deterministic workload inputs: every list here is a pure function of
//! the workload seed and the request count.
//!
//! The oracle verdicts are computed here, during the generator's own
//! set-up and outside every timed metric, with the global canon cache
//! switched off so that neither the verdicts nor the cache counters of
//! the traced replay depend on what the generator looked at.

use std::collections::HashSet;

use qelect::solvability::gcd_of_class_sizes;
use qelect_bench::spec::InstanceSpec;
use qelect_graph::canon::canonicalize;
use qelect_graph::{cache, ColoredDigraph};

/// splitmix64: a small, stable PRNG, so inputs never change with a
/// dependency's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F9E_17C0_DE00)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// One election request with its precomputed gcd-oracle verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Canonical spec key (`family@agents`).
    pub spec: String,
    /// Election seed sent with the request (distinct per request).
    pub seed: u64,
    /// The gcd of the equivalence-class sizes.
    pub gcd: usize,
    /// Whether ELECT must elect (gcd = 1).
    pub solvable: bool,
}

/// The inputs of one serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Sent once during set-up, before the measured phase.
    pub warmup: Vec<Item>,
    /// The measured requests, in send order.
    pub requests: Vec<Item>,
    /// Requests whose instance is isomorphic to an earlier request's
    /// (counted and reported, never filtered out).
    pub isomorphic_repeats: usize,
}

/// The serve mix `qelectctl load` uses by default.
pub fn mix() -> Vec<String> {
    qelect_bench::load::default_mix()
}

/// Election seeds stay below 2^53, so they survive the daemon's JSON
/// number parsing exactly.
fn seed_base(rng: &mut Rng) -> u64 {
    rng.next() >> 12
}

/// `(gcd, solvable)` for a spec.
fn verdict(spec: &str) -> (usize, bool) {
    let bc = InstanceSpec::parse(spec)
        .and_then(|s| s.bicolored())
        .unwrap_or_else(|e| panic!("generated spec {spec:?} is invalid: {e}"));
    let gcd = gcd_of_class_sizes(&bc);
    (gcd, gcd == 1)
}

/// Run `f` with the process-wide canon cache switched off.
fn without_cache<R>(f: impl FnOnce() -> R) -> R {
    let caches = cache::global();
    let was = caches.is_enabled();
    caches.set_enabled(false);
    let out = f();
    caches.set_enabled(was);
    out
}

/// serve-warm: the 7-item mix, one warm-up pass, then `n` requests
/// drawn from the mix, each with its own election seed (so no two
/// requests coalesce).
pub fn serve_warm(seed: u64, n: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let base = seed_base(&mut rng);
    let verdicts: Vec<Item> = without_cache(|| {
        mix()
            .into_iter()
            .map(|spec| {
                let (gcd, solvable) = verdict(&spec);
                Item {
                    spec,
                    seed: 0,
                    gcd,
                    solvable,
                }
            })
            .collect()
    });
    let warmup = verdicts
        .iter()
        .enumerate()
        .map(|(i, v)| Item {
            seed: base + i as u64,
            ..v.clone()
        })
        .collect();
    let requests = (0..n)
        .map(|i| Item {
            seed: base + (verdicts.len() + i) as u64,
            ..verdicts[rng.range(0, verdicts.len() - 1)].clone()
        })
        .collect();
    Inputs {
        warmup,
        requests,
        // Every measured request repeats a warm-up instance.
        isomorphic_repeats: n,
    }
}

/// Generator threads: nproc on the 2-core reference box.
const THREADS: usize = 2;

/// Smallest and largest ring size of serve-fresh instances.
pub const FRESH_N: (usize, usize) = (16, 48);

/// serve-fresh: `n` never-seen instances — `cycle:n` and
/// `circulant:n:1,3` with 2–4 agents — with no repeated spec key.
pub fn serve_fresh(seed: u64, n: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let base = seed_base(&mut rng);
    let mut keys = HashSet::new();
    let mut specs = Vec::with_capacity(n);
    while specs.len() < n {
        let size = rng.range(FRESH_N.0, FRESH_N.1);
        let family = if rng.next().is_multiple_of(2) {
            format!("cycle:{size}")
        } else {
            format!("circulant:{size}:1,3")
        };
        let r = rng.range(2, 4);
        let mut agents = Vec::with_capacity(r);
        while agents.len() < r {
            let a = rng.range(0, size - 1);
            if !agents.contains(&a) {
                agents.push(a);
            }
        }
        agents.sort_unstable();
        let list: Vec<String> = agents.iter().map(|a| a.to_string()).collect();
        let spec = format!("{family}@{}", list.join(","));
        if keys.insert(spec.clone()) {
            specs.push(spec);
        }
    }
    // Verdicts and canonical forms are the costly part: split them over
    // the generator's threads (each result depends only on its spec).
    let judged: Vec<(usize, Vec<u64>)> = without_cache(|| {
        let chunk = n.div_ceil(THREADS).max(1);
        std::thread::scope(|scope| {
            let parts: Vec<_> = specs
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|spec| {
                                let bc = InstanceSpec::parse(spec)
                                    .and_then(|s| s.bicolored())
                                    .expect("generated specs are valid");
                                let form =
                                    canonicalize(&ColoredDigraph::from_bicolored(&bc)).form.0;
                                (verdict(spec).0, form)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("generator thread panicked"))
                .collect()
        })
    });
    let mut forms = HashSet::new();
    let mut isomorphic_repeats = 0;
    let requests = specs
        .into_iter()
        .zip(judged)
        .enumerate()
        .map(|(i, (spec, (gcd, form)))| {
            if !forms.insert(form) {
                isomorphic_repeats += 1;
            }
            Item {
                spec,
                seed: base + i as u64,
                gcd,
                solvable: gcd == 1,
            }
        })
        .collect();
    Inputs {
        warmup: Vec::new(),
        requests,
        isomorphic_repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_gives_the_same_inputs() {
        assert_eq!(serve_warm(7, 200), serve_warm(7, 200));
        assert_eq!(serve_fresh(7, 200), serve_fresh(7, 200));
    }

    #[test]
    fn another_seed_gives_different_fresh_instances() {
        let a: HashSet<String> = serve_fresh(1, 200)
            .requests
            .into_iter()
            .map(|i| i.spec)
            .collect();
        let b: HashSet<String> = serve_fresh(2, 200)
            .requests
            .into_iter()
            .map(|i| i.spec)
            .collect();
        assert!(
            a.intersection(&b).count() < 20,
            "seeds 1 and 2 share most instances"
        );
        assert_ne!(serve_warm(1, 200).requests, serve_warm(2, 200).requests);
    }

    #[test]
    fn serve_fresh_repeats_no_spec_key() {
        let inputs = serve_fresh(3, 2000);
        let keys: HashSet<&str> = inputs.requests.iter().map(|i| i.spec.as_str()).collect();
        assert_eq!(keys.len(), inputs.requests.len());
        assert!(inputs.isomorphic_repeats < inputs.requests.len());
    }

    #[test]
    fn election_seeds_are_distinct_and_exact_in_json() {
        for inputs in [serve_warm(5, 500), serve_fresh(5, 500)] {
            let seeds: HashSet<u64> = inputs
                .warmup
                .iter()
                .chain(&inputs.requests)
                .map(|i| i.seed)
                .collect();
            assert_eq!(seeds.len(), inputs.warmup.len() + inputs.requests.len());
            assert!(seeds.iter().all(|&s| s < 1 << 53));
        }
    }

    #[test]
    fn verdicts_follow_the_gcd_condition() {
        let warm = serve_warm(0, 0);
        let by_spec: Vec<(&str, bool)> = warm
            .warmup
            .iter()
            .map(|i| (i.spec.as_str(), i.solvable))
            .collect();
        assert!(by_spec.contains(&("cycle:12@0,1,3", true)));
        assert!(by_spec.contains(&("cycle:6@0,3", false)));
        assert!(serve_fresh(9, 300).requests.iter().any(|i| !i.solvable));
        assert!(serve_fresh(9, 300).requests.iter().any(|i| i.solvable));
    }
}
