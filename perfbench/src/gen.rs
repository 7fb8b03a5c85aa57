//! Seeded input generation for the three workloads.
//!
//! A workload is one *pass*: a list of checks (a system file plus a PLTL
//! formula) in a seeded order. The legs in `run.py` repeat whole passes,
//! so the composition of every measured sample set is fixed; the seed only
//! picks sizes inside fixed buckets, the random systems and the order. That
//! keeps the cost of a pass close across seeds, which is what lets runs with
//! different seeds be compared.
//!
//! Systems come from the shipped fixtures (`examples/systems/*`, copied
//! verbatim) and from the `rl_bench` families rendered with
//! [`relative_liveness::format::render_system`]; the program under test only
//! ever sees the written text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_liveness::format::render_system;
use relative_liveness::logic::Formula;
use rl_bench::{fairness_chain, nested_until, random_system, server_farm, token_ring};

use crate::expect::{Triple, FFF, FFH, FHF, HHH};
use crate::json_str;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["cli-mix", "formula-depth"];

/// One check of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Unique within the pass.
    pub id: String,
    /// File name under the generated `systems/` directory.
    pub system: String,
    /// The PLTL formula, in the CLI's ASCII syntax.
    pub formula: String,
    /// The verdict triple that follows from the system's construction, when
    /// it was derived by hand.
    pub expect: Option<Triple>,
    /// Built to run at least twice past the workload's per-check limit.
    pub over_limit: bool,
}

/// A generated workload: the pass plus every system text it names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// The seed it was generated from.
    pub seed: u64,
    /// One pass, in measurement order.
    pub items: Vec<Item>,
    /// System file name → text.
    pub systems: BTreeMap<String, String>,
    /// A check built to run past a one-second limit, outside the pass: the
    /// traced run times the guard's overshoot on it when the pass has no
    /// over-limit check of its own.
    pub probe: Item,
}

/// The shipped fixtures with their hand-derived verdicts (classical,
/// rel-live, rel-safe); the argument for each triple is in [`crate::expect`].
pub const FIXTURE_CHECKS: &[(&str, &str, Triple)] = &[
    ("abp.ts", "[]<>deliver", FHF),
    ("abp.ts", "[](deliver -> X !deliver)", HHH),
    ("clock.ts", "[]<>chime", FHF),
    ("clock.ts", "[](tick -> X(tock | chime))", HHH),
    ("clock.ts", "[]!chime", FFH),
    ("server.pn", "[]<>result", FHF),
    ("server.pn", "[](result -> X(request | lock | free))", HHH),
    ("server_err.pn", "[]<>result", FFF),
    ("needle24.ts", "[]<>a", FHF),
    ("filter_sim.ts", "[]<>ack", FHF),
    ("filter_parikh.ts", "[]<>a", FFF),
    ("filter_mod3.ts", "[]<>a", FFF),
    ("filter_fallthrough.ts", "[]<>a", FFH),
];

/// `token_ring(n)` formulas, one per verdict triple; the triples hold for
/// every `n >= 2`.
pub const RING_CHECKS: &[(&str, Triple)] = &[
    ("[](work0 -> X(work0 | pass0))", HHH),
    ("[]<>pass0", FHF),
    ("[]work0", FFH),
    ("[]!work1 & []<>pass0", FFF),
];

/// `server_farm(k)` formulas with their triples for `k = 1` and `k >= 2`
/// (only the last one depends on `k`).
pub const FARM_CHECKS: &[(&str, Triple, Triple)] = &[
    ("[](result0 -> X !result0)", HHH, HHH),
    ("[]<>result0", FHF, FHF),
    ("[]!lock0", FFH, FFH),
    ("[]!lock0 & []<>result0", FFH, FFF),
];

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

fn read_fixture(root: &Path, file: &str) -> Result<String, String> {
    let path = root.join("examples/systems").join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replaces atom names, so the `rl_bench` formula families can be aimed at
/// a system's own actions.
pub fn rename_atoms(f: &Formula, map: &[(&str, &str)]) -> Formula {
    let r = |g: &Formula| Box::new(rename_atoms(g, map));
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(p) => Formula::Atom(
            map.iter()
                .find(|(from, _)| from == p)
                .map_or_else(|| p.clone(), |(_, to)| (*to).to_owned()),
        ),
        Formula::Not(x) => Formula::Not(r(x)),
        Formula::And(x, y) => Formula::And(r(x), r(y)),
        Formula::Or(x, y) => Formula::Or(r(x), r(y)),
        Formula::Implies(x, y) => Formula::Implies(r(x), r(y)),
        Formula::Iff(x, y) => Formula::Iff(r(x), r(y)),
        Formula::Next(x) => Formula::Next(r(x)),
        Formula::Until(x, y) => Formula::Until(r(x), r(y)),
        Formula::Release(x, y) => Formula::Release(r(x), r(y)),
        Formula::Before(x, y) => Formula::Before(r(x), r(y)),
        Formula::WeakUntil(x, y) => Formula::WeakUntil(r(x), r(y)),
        Formula::Eventually(x) => Formula::Eventually(r(x)),
        Formula::Always(x) => Formula::Always(r(x)),
    }
}

/// `[]^d <>atom`: an idempotent chain, equivalent to `[]<>atom`.
fn box_chain(d: usize, atom: &str) -> String {
    format!("{}<>{atom}", "[]".repeat(d))
}

/// `<>^d atom`: an idempotent chain, equivalent to `<>atom`.
fn diamond_chain(d: usize, atom: &str) -> String {
    format!("{}{atom}", "<>".repeat(d))
}

struct Pass {
    name: String,
    seed: u64,
    items: Vec<Item>,
    systems: BTreeMap<String, String>,
}

impl Pass {
    fn new(name: &str, seed: u64) -> Pass {
        Pass {
            name: name.to_owned(),
            seed,
            items: Vec::new(),
            systems: BTreeMap::new(),
        }
    }

    fn system(&mut self, file: &str, text: String) {
        self.systems.insert(file.to_owned(), text);
    }

    fn check(&mut self, system: &str, formula: &str, expect: Option<Triple>, over_limit: bool) {
        let id = format!("{}#{}", system, self.items.len());
        self.items.push(Item {
            id,
            system: system.to_owned(),
            formula: formula.to_owned(),
            expect,
            over_limit,
        });
    }

    fn finish(mut self, root: &Path, rng: &mut StdRng) -> Result<Workload, String> {
        shuffle(rng, &mut self.items);
        if !self.systems.contains_key("clock.ts") {
            self.system("clock.ts", read_fixture(root, "clock.ts")?);
        }
        let probe = Item {
            id: "guard-probe".to_owned(),
            system: "clock.ts".to_owned(),
            formula: diamond_chain(OVER_LIMIT_DIAMOND, "chime"),
            expect: Some(FHF),
            over_limit: true,
        };
        Ok(Workload {
            name: self.name,
            seed: self.seed,
            items: self.items,
            systems: self.systems,
            probe,
        })
    }
}

fn add_fixtures(b: &mut Pass, root: &Path) -> Result<(), String> {
    for (file, formula, triple) in FIXTURE_CHECKS {
        if !b.systems.contains_key(*file) {
            b.system(file, read_fixture(root, file)?);
        }
        b.check(file, formula, Some(*triple), false);
    }
    Ok(())
}

fn add_ring(b: &mut Pass, n: usize) {
    let file = format!("token_ring_{n}.ts");
    b.system(&file, render_system(&token_ring(n)));
    for (formula, triple) in RING_CHECKS {
        b.check(&file, formula, Some(*triple), false);
    }
}

fn add_farm(b: &mut Pass, k: usize) {
    let file = format!("server_farm_{k}.ts");
    b.system(&file, render_system(&server_farm(k)));
    for (formula, one, many) in FARM_CHECKS {
        b.check(
            &file,
            formula,
            Some(if k == 1 { *one } else { *many }),
            false,
        );
    }
}

/// The formulas asked of a random system over `t0..t{k-1}`; no triple is
/// known in advance, so these are checked by Theorem 4.7 consistency and
/// witness replay only.
fn random_formulas(k: usize) -> Vec<String> {
    let all = (0..k)
        .map(|i| format!("t{i}"))
        .collect::<Vec<_>>()
        .join(" | ");
    vec![
        format!("[]<>({all})"),
        "[]<>t0".to_owned(),
        "[](t0 -> <>t1)".to_owned(),
        "<>[]t0".to_owned(),
        "[]t0".to_owned(),
    ]
}

fn add_random(b: &mut Pass, rng: &mut StdRng, idx: usize, sizes: (usize, usize)) {
    let n = rng.gen_range(sizes.0..sizes.1 + 1);
    // Alphabet sizes cycle 3, 4, 5, so every pass has the same mix.
    let k = 3 + idx % 3;
    let sys_seed = rng.gen_range(0..u64::MAX);
    let file = format!("random_{idx}_{n}x{k}.ts");
    b.system(&file, render_system(&random_system(sys_seed, n, k, 0.5)));
    for f in random_formulas(k) {
        b.check(&file, &f, None, false);
    }
}

/// `cli-mix`: every fixture check, four token rings and the three server
/// farm sizes with their hand-derived routes, and 24 random systems with
/// every random formula. The random systems' sizes step evenly
/// through 50..400, so check costs form a continuum rather than a few
/// clusters and the pass median does not jump between them.
fn cli_mix(root: &Path, seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Pass::new("cli-mix", seed);
    add_fixtures(&mut b, root)?;
    for (lo, hi) in [(8, 15), (16, 31), (32, 47), (48, 64)] {
        let n = rng.gen_range(lo..hi + 1);
        add_ring(&mut b, n);
    }
    for k in 1..=3 {
        add_farm(&mut b, k);
    }
    for i in 0..RANDOM_SYSTEMS {
        let lo = 50 + i * 350 / RANDOM_SYSTEMS;
        let hi = 50 + (i + 1) * 350 / RANDOM_SYSTEMS;
        add_random(&mut b, &mut rng, i, (lo, hi));
    }
    b.finish(root, &mut rng)
}

/// Random systems per `cli-mix` pass.
const RANDOM_SYSTEMS: usize = 24;

/// `formula-depth`: a sweep of growing formulas over small systems —
/// idempotent `[]`/`<>` chains on the clock, `fairness_chain(k)` on the
/// ring and on abp, `nested_until(k)` on the ring — plus one chain built to
/// run at least twice past the per-check limit. The sizes are fixed, so the
/// cost of a pass does not depend on the seed; the seed picks the ring
/// stations of the fairness chains and the order.
fn formula_depth(root: &Path, seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Pass::new("formula-depth", seed);
    b.system("clock.ts", read_fixture(root, "clock.ts")?);
    b.system("abp.ts", read_fixture(root, "abp.ts")?);
    b.system("token_ring_4.ts", render_system(&token_ring(4)));
    // Chains equivalent to []<>chime and <>chime: both fail classically and
    // are relatively live on the clock.
    for d in 1..=MAX_CHAIN_DEPTH {
        b.check("clock.ts", &box_chain(d, "chime"), Some(FHF), false);
        b.check("clock.ts", &diamond_chain(d, "chime"), Some(FHF), false);
    }
    let first = rng.gen_range(0..4usize);
    let second = (first + rng.gen_range(1..4usize)) % 4;
    let (a, bb) = (format!("pass{first}"), format!("pass{second}"));
    for k in 1..=MAX_FAIRNESS {
        let f = rename_atoms(&fairness_chain(k), &[("a", &a), ("b", &bb)]);
        b.check("token_ring_4.ts", &f.to_string(), None, false);
        let f = rename_atoms(&fairness_chain(k), &[("a", "deliver"), ("b", "lose")]);
        b.check("abp.ts", &f.to_string(), None, false);
    }
    for k in 1..=MAX_UNTIL {
        // work0 U (work0 U (... U pass0)) is work0 U pass0 on the ring.
        let f = rename_atoms(&nested_until(k), &[("a", "work0"), ("b", "pass0")]);
        b.check("token_ring_4.ts", &f.to_string(), Some(FHF), false);
    }
    b.check(
        "clock.ts",
        &diamond_chain(OVER_LIMIT_DIAMOND, "chime"),
        Some(FHF),
        true,
    );
    b.finish(root, &mut rng)
}

/// Deepest idempotent chain: `[]^18<>chime` takes about 0.15 s and
/// `<>^18 chime` about 0.25 s, well inside the one-second limit.
const MAX_CHAIN_DEPTH: usize = 18;
/// Largest `fairness_chain` (about 20–35 ms a check).
const MAX_FAIRNESS: usize = 12;
/// Deepest `nested_until`: depth 6 takes about 0.25 s, and each level
/// multiplies the time by about four.
const MAX_UNTIL: usize = 6;
/// `<>^32 chime` takes about 2.8 s without a limit: at least twice the
/// one-second limit of formula-depth.
pub const OVER_LIMIT_DIAMOND: usize = 32;

/// Generates `workload` for `seed`, reading fixtures under `root`.
pub fn generate(workload: &str, seed: u64, root: &Path) -> Result<Workload, String> {
    match workload {
        "cli-mix" => cli_mix(root, seed),
        "formula-depth" => formula_depth(root, seed),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn item_json(item: &Item) -> String {
    let expect = item
        .expect
        .map_or_else(|| "null".to_owned(), |t| json_str(&t.code()));
    format!(
        "{{\"id\": {}, \"system\": {}, \"formula\": {}, \"expect\": {}, \"over_limit\": {}}}",
        json_str(&item.id),
        json_str(&item.system),
        json_str(&item.formula),
        expect,
        item.over_limit
    )
}

/// The manifest: one JSON object with the pass, in a stable byte layout.
pub fn manifest_json(w: &Workload) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"items\": [",
        json_str(&w.name),
        w.seed
    );
    for (i, item) in w.items.iter().enumerate() {
        let _ = write!(out, "  {}", item_json(item));
        out.push_str(if i + 1 < w.items.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "], \"probe\": {}}}", item_json(&w.probe));
    out
}

/// Writes `inputs.json` and `systems/*` under `dir`.
pub fn write(w: &Workload, dir: &Path) -> Result<(), String> {
    let sys_dir = dir.join("systems");
    std::fs::create_dir_all(&sys_dir).map_err(|e| format!("{}: {e}", sys_dir.display()))?;
    for (file, text) in &w.systems {
        let path = sys_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = dir.join("inputs.json");
    std::fs::write(&path, manifest_json(w)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relative_liveness::check::{run_check, CheckSpec};
    use relative_liveness::core::{Budget, Guard};

    use crate::expect::{check_report, parse_report};

    /// The Theorem 4.7 routes each workload's pass is built to cover.
    fn declared_routes(workload: &str) -> &'static [&'static str] {
        match workload {
            "formula-depth" => &["classical", "rel_live"],
            _ => &["classical", "rel_live", "residual"],
        }
    }

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut out = BTreeMap::new();
        for sub in ["", "systems"] {
            for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
                let path = entry.unwrap().path();
                if path.is_file() {
                    out.insert(
                        path.strip_prefix(dir).unwrap().display().to_string(),
                        std::fs::read(&path).unwrap(),
                    );
                }
            }
        }
        out
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_seed_writes_byte_identical_inputs_and_another_seed_does_not() {
        for workload in WORKLOADS {
            let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
            write(&generate(workload, 7, root()).unwrap(), &a).unwrap();
            write(&generate(workload, 7, root()).unwrap(), &b).unwrap();
            write(&generate(workload, 8, root()).unwrap(), &c).unwrap();
            let (fa, fb, fc) = (files(&a), files(&b), files(&c));
            assert_eq!(fa, fb, "{workload}: seed 7 twice");
            assert_ne!(fa, fc, "{workload}: seeds 7 and 8");
            for d in [a, b, c] {
                std::fs::remove_dir_all(d).unwrap();
            }
        }
    }

    #[test]
    fn every_workload_covers_its_declared_routes() {
        for workload in WORKLOADS {
            let w = generate(workload, 3, root()).unwrap();
            let dir = scratch(workload);
            write(&w, &dir).unwrap();
            let mut seen = std::collections::BTreeSet::new();
            for item in w.items.iter().filter(|i| !i.over_limit) {
                let path = dir.join("systems").join(&item.system);
                let spec = CheckSpec::from_path(path.display().to_string(), item.formula.clone());
                let mut out = String::new();
                run_check(&spec, &Guard::new(Budget::unlimited()), &mut out).unwrap();
                let text = std::fs::read_to_string(&path).unwrap();
                let ts = relative_liveness::format::parse_system(&text).unwrap();
                let t = check_report(
                    &ts,
                    &item.formula,
                    &parse_report(&out).unwrap(),
                    item.expect,
                )
                .unwrap_or_else(|e| panic!("{workload} {}: {e}", item.id));
                seen.insert(t.route());
            }
            for route in declared_routes(workload) {
                assert!(
                    seen.contains(route),
                    "{workload} lacks route {route}: {seen:?}"
                );
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn hand_derived_triples_respect_theorem_4_7() {
        let triples = FIXTURE_CHECKS
            .iter()
            .map(|c| c.2)
            .chain(RING_CHECKS.iter().map(|c| c.1))
            .chain(FARM_CHECKS.iter().flat_map(|c| [c.1, c.2]));
        for t in triples {
            assert_eq!(t.0, t.1 && t.2, "{}", t.code());
        }
    }
}
