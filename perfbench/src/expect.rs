//! Output checking: parse an `rlcheck check` report, hold it to the
//! expected verdicts and to Theorem 4.7, and replay every witness.
//!
//! The hand-derived triples used by the generator, with the argument for
//! each (L is the system's behaviors, P the property):
//!
//! * `[]<>x` where some behavior can avoid `x` forever but every prefix can
//!   still reach `x` (abp's lossy channel, the clock's tock loop, the
//!   server's reject loop, needle24's window, filter_sim's `work` loop, the
//!   ring's `work0` loop, farm server 0's idle siblings): classical fails,
//!   rel-live holds, and Theorem 4.7 makes rel-safe fail (FHF).
//! * Next-step invariants that follow from the transition structure
//!   (`deliver` is never directly repeated in abp, `tick` is followed by
//!   `tock|chime` on the clock, `result` is followed by
//!   `request|lock|free` on the server, the ring's station 0 keeps the token
//!   until `pass0`, a farm server cannot `result` twice in a row): HHH.
//! * Safety properties with a reachable bad prefix (`[]!chime`, `[]work0`,
//!   `[]!lock0`): a safety property is always relatively safe, and the bad
//!   prefix is doomed, so FFH. filter_fallthrough's `[]<>a` is FFH too:
//!   every behavior that stops doing `a` runs through the `b.b.a` wedge,
//!   whose prefixes are already doomed.
//! * FFF needs a doomed prefix and an escaping behavior: server_err's
//!   `lock` dooms `[]<>result` while `request.no.(reject.request.no)^ω`
//!   escapes; filter_parikh and filter_mod3 wedge on `c` / an early `b`
//!   while `b^ω` / `x^ω` escape; the ring's `[]!work1 & []<>pass0` is
//!   doomed by `pass0.work1` and escaped by `work0^ω`; the farm's
//!   `[]!lock0 & []<>result0` is doomed by `lock0` and, with a second
//!   server, escaped by `request0.(lock1.free1)^ω` (with one server every
//!   lock-free behavior cycles through `result0`, so it is FFH).

use relative_liveness::automata::{parse_word, TransitionSystem};
use relative_liveness::buchi::UpWord;
use relative_liveness::logic::{evaluate, parse, Labeling};

/// A verdict triple: (classical, rel-live, rel-safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple(pub bool, pub bool, pub bool);

/// Classical, rel-live and rel-safe all hold.
pub const HHH: Triple = Triple(true, true, true);
/// Only rel-live holds.
pub const FHF: Triple = Triple(false, true, false);
/// Only rel-safe holds.
pub const FFH: Triple = Triple(false, false, true);
/// Nothing holds.
pub const FFF: Triple = Triple(false, false, false);

impl Triple {
    /// Three letters, `H` for holds and `F` for fails, as in the manifest.
    pub fn code(self) -> String {
        [self.0, self.1, self.2]
            .iter()
            .map(|&b| if b { 'H' } else { 'F' })
            .collect()
    }

    /// Parses [`Triple::code`].
    pub fn from_code(code: &str) -> Option<Triple> {
        let b: Vec<bool> = code
            .chars()
            .map(|c| match c {
                'H' => Some(true),
                'F' => Some(false),
                _ => None,
            })
            .collect::<Option<_>>()?;
        match b.as_slice() {
            [c, l, s] => Some(Triple(*c, *l, *s)),
            _ => None,
        }
    }

    /// The Theorem 4.7 route that settles this triple: `classical` when
    /// classical satisfaction holds, `rel_live` when it fails but relative
    /// liveness holds, `residual` when both fail and only the Lemma 4.4
    /// product decides relative safety.
    pub fn route(self) -> &'static str {
        match self {
            Triple(true, _, _) => "classical",
            Triple(false, true, _) => "rel_live",
            Triple(false, false, _) => "residual",
        }
    }
}

/// The verdicts and witnesses of one report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Classical satisfaction, rel-live, rel-safe (`None` when missing).
    pub verdicts: [Option<bool>; 3],
    /// `counterexample:` text.
    pub counterexample: Option<String>,
    /// `doomed prefix:` text.
    pub doomed_prefix: Option<String>,
    /// `escaping behavior:` text.
    pub escaping: Option<String>,
}

impl Report {
    /// The triple, when all three verdicts are present.
    pub fn triple(&self) -> Option<Triple> {
        match self.verdicts {
            [Some(c), Some(l), Some(s)] => Some(Triple(c, l, s)),
            _ => None,
        }
    }
}

/// Parses a check report (CLI stdout, or a serve `output` field).
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut r = Report::default();
    for line in text.lines() {
        let trimmed = line.trim();
        let slot = [("classical ", 0), ("rel-live ", 1), ("rel-safe ", 2)]
            .into_iter()
            .find(|(tag, _)| line.starts_with(tag));
        if let Some((_, i)) = slot {
            let verdict = match line.rsplit_once(": ") {
                Some((_, "HOLDS")) => true,
                Some((_, "fails")) => false,
                _ => return Err(format!("unreadable verdict line {line:?}")),
            };
            if r.verdicts[i].replace(verdict).is_some() {
                return Err(format!("duplicate verdict line {line:?}"));
            }
        } else if let Some(w) = trimmed.strip_prefix("counterexample: ") {
            r.counterexample = Some(w.to_owned());
        } else if let Some(w) = trimmed.strip_prefix("doomed prefix: ") {
            r.doomed_prefix = Some(w.to_owned());
        } else if let Some(w) = trimmed.strip_prefix("escaping behavior: ") {
            r.escaping = Some(w.to_owned());
        } else if !trimmed.is_empty() && !trimmed.starts_with("=== ") {
            return Err(format!("unexpected report line {line:?}"));
        }
    }
    Ok(r)
}

/// Parses the `u.(v)^ω` display form of an ultimately periodic word.
pub fn parse_upword(ts: &TransitionSystem, text: &str) -> Result<UpWord, String> {
    let body = text
        .strip_suffix(")^ω")
        .ok_or_else(|| format!("{text:?} is not of the form u.(v)^ω"))?;
    let (prefix, period) = match body.strip_prefix('(') {
        Some(period) => ("", period),
        None => body
            .split_once(".(")
            .ok_or_else(|| format!("{text:?} is not of the form u.(v)^ω"))?,
    };
    let ab = ts.alphabet();
    let u = parse_word(ab, prefix).map_err(|e| format!("{text:?}: {e}"))?;
    let v = parse_word(ab, period).map_err(|e| format!("{text:?}: {e}"))?;
    UpWord::new(u, v).map_err(|e| format!("{text:?}: {e}"))
}

/// Whether the infinite word `x` is a behavior of `ts`: every prefix has a
/// run (for a finite system that is an infinite run, by König's lemma).
/// The reachable state sets after `u·v^i` repeat, so the walk ends.
pub fn is_behavior(ts: &TransitionSystem, x: &UpWord) -> bool {
    let step = |set: &[bool], word: &[relative_liveness::automata::Symbol]| -> Option<Vec<bool>> {
        let mut cur = set.to_vec();
        for &a in word {
            let mut next = vec![false; ts.state_count()];
            for (q, _) in cur.iter().enumerate().filter(|(_, on)| **on) {
                for (b, r) in ts.enabled(q) {
                    if b == a {
                        next[r] = true;
                    }
                }
            }
            if !next.iter().any(|&on| on) {
                return None;
            }
            cur = next;
        }
        Some(cur)
    };
    let mut start = vec![false; ts.state_count()];
    start[ts.initial()] = true;
    let Some(mut set) = step(&start, x.prefix()) else {
        return false;
    };
    let mut seen = std::collections::HashSet::new();
    while seen.insert(set.clone()) {
        match step(&set, x.period()) {
            Some(next) => set = next,
            None => return false,
        }
    }
    true
}

/// Checks one report of `formula` on `ts`: expected triple (if any),
/// Theorem 4.7 consistency, witness presence, and witness replay. Returns
/// the triple.
pub fn check_report(
    ts: &TransitionSystem,
    formula: &str,
    report: &Report,
    expect: Option<Triple>,
) -> Result<Triple, String> {
    let t = report
        .triple()
        .ok_or_else(|| "report lacks one of the three verdicts".to_owned())?;
    if let Some(want) = expect {
        if t != want {
            return Err(format!(
                "verdicts {} but {} was expected",
                t.code(),
                want.code()
            ));
        }
    }
    // Theorem 4.7: L ⊆ P iff P is relatively live and relatively safe.
    if t.0 != (t.1 && t.2) {
        return Err(format!("verdicts {} contradict Theorem 4.7", t.code()));
    }
    let witnesses = [
        (t.0, &report.counterexample, "counterexample"),
        (t.1, &report.doomed_prefix, "doomed prefix"),
        (t.2, &report.escaping, "escaping behavior"),
    ];
    for (holds, witness, what) in witnesses {
        if holds == witness.is_some() {
            return Err(format!(
                "{what} {} for a verdict that {}",
                if holds { "present" } else { "missing" },
                if holds { "holds" } else { "fails" }
            ));
        }
    }
    let eta = parse(formula).map_err(|e| format!("formula {formula:?}: {e}"))?;
    let lam = Labeling::canonical(ts.alphabet());
    for (witness, what) in [
        (&report.counterexample, "counterexample"),
        (&report.escaping, "escaping behavior"),
    ] {
        let Some(text) = witness else { continue };
        let x = parse_upword(ts, text)?;
        if !is_behavior(ts, &x) {
            return Err(format!("{what} {text} is not a behavior of the system"));
        }
        if evaluate(&eta, &x, &lam) {
            return Err(format!("{what} {text} satisfies the formula"));
        }
    }
    if let Some(text) = &report.doomed_prefix {
        let w = if text == "ε" {
            Vec::new()
        } else {
            parse_word(ts.alphabet(), text).map_err(|e| format!("doomed prefix {text:?}: {e}"))?
        };
        if !ts.admits(&w) {
            return Err(format!("doomed prefix {text} is not a run of the system"));
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relative_liveness::format::parse_system;

    const CLOCK: &str = "system\nalphabet: tick tock chime\ninitial: lo\n\
                         lo tick -> hi\nhi tock -> lo\nhi chime -> hi\n";
    const REPORT: &str = "\
classical  []<>chime: fails
           counterexample: tick.tock.(tick.tock)^ω
rel-live   []<>chime: HOLDS
rel-safe   []<>chime: fails
           escaping behavior: tick.tock.(tick.tock)^ω
";

    fn check(report: &str, expect: Option<Triple>) -> Result<Triple, String> {
        let ts = parse_system(CLOCK).unwrap();
        check_report(&ts, "[]<>chime", &parse_report(report)?, expect)
    }

    #[test]
    fn a_true_report_passes() {
        assert_eq!(check(REPORT, Some(FHF)), Ok(FHF));
        assert_eq!(check(REPORT, None), Ok(FHF));
    }

    #[test]
    fn a_wrong_expected_verdict_fires_the_gate() {
        for wrong in [HHH, FFH, FFF] {
            let err = check(REPORT, Some(wrong)).unwrap_err();
            assert!(err.contains("was expected"), "{err}");
        }
    }

    #[test]
    fn verdicts_against_theorem_4_7_fire_the_gate() {
        let bad = REPORT.replace("rel-safe   []<>chime: fails", "rel-safe   []<>chime: HOLDS");
        let bad = bad.replace(
            "           escaping behavior: tick.tock.(tick.tock)^ω\n",
            "",
        );
        assert!(check(&bad, None).unwrap_err().contains("Theorem 4.7"));
    }

    #[test]
    fn witnesses_that_do_not_replay_fire_the_gate() {
        // Satisfies the formula.
        let sat = REPORT.replace(
            "counterexample: tick.tock.(tick.tock)^ω",
            "counterexample: tick.(chime)^ω",
        );
        assert!(check(&sat, None).unwrap_err().contains("satisfies"));
        // Not a behavior of the clock.
        let alien = REPORT.replace(
            "escaping behavior: tick.tock.(tick.tock)^ω",
            "escaping behavior: (tock)^ω",
        );
        assert!(check(&alien, None).unwrap_err().contains("not a behavior"));
        // A missing witness.
        let bare = REPORT.replace("           counterexample: tick.tock.(tick.tock)^ω\n", "");
        assert!(check(&bare, None).unwrap_err().contains("missing"));
    }

    #[test]
    fn a_doomed_prefix_must_be_a_run() {
        let ts = parse_system(CLOCK).unwrap();
        let report = "\
classical  []!chime: fails
           counterexample: tick.(chime)^ω
rel-live   []!chime: fails
           doomed prefix: tock
rel-safe   []!chime: HOLDS
";
        let err = check_report(&ts, "[]!chime", &parse_report(report).unwrap(), None).unwrap_err();
        assert!(err.contains("not a run"), "{err}");
        let ok = report.replace("doomed prefix: tock", "doomed prefix: tick.chime");
        assert_eq!(
            check_report(&ts, "[]!chime", &parse_report(&ok).unwrap(), Some(FFH)),
            Ok(FFH)
        );
    }

    #[test]
    fn upwords_parse_in_both_display_forms() {
        let ts = parse_system(CLOCK).unwrap();
        let x = parse_upword(&ts, "(tick.tock)^ω").unwrap();
        assert!(x.prefix().is_empty() && x.period().len() == 2);
        let y = parse_upword(&ts, "tick.(chime)^ω").unwrap();
        assert_eq!((y.prefix().len(), y.period().len()), (1, 1));
        assert!(is_behavior(&ts, &x) && is_behavior(&ts, &y));
        assert!(parse_upword(&ts, "tick.tock").is_err());
    }
}
