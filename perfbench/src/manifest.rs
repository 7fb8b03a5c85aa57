//! Reading back the generated `inputs.json` and the legs' results.

use std::path::Path;

use rl_json::Json;

use crate::expect::Triple;

/// One check of the manifest, with its system path resolved.
#[derive(Debug, Clone)]
pub struct Input {
    /// Unique within the pass.
    pub id: String,
    /// Path of the system file.
    pub path: String,
    /// The PLTL formula.
    pub formula: String,
    /// The hand-derived verdicts, if any.
    pub expect: Option<Triple>,
    /// Built to run past the per-check limit.
    pub over_limit: bool,
}

fn str_of<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("missing string field `{key}`")),
    }
}

/// Reads `<dir>/inputs.json`: the pass, then the guard probe.
pub fn read_inputs(dir: &Path) -> Result<Vec<Input>, String> {
    let path = dir.join("inputs.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = rl_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let items = doc
        .field("items")
        .and_then(Json::as_arr)
        .map_err(|e| e.to_string())?;
    let probe = doc.field("probe").map_err(|e| e.to_string())?;
    items
        .iter()
        .chain(std::iter::once(probe))
        .map(|item| {
            let expect = match item.get("expect") {
                Some(Json::Str(code)) => {
                    Some(Triple::from_code(code).ok_or_else(|| format!("bad expect {code:?}"))?)
                }
                _ => None,
            };
            Ok(Input {
                id: str_of(item, "id")?.to_owned(),
                path: dir
                    .join("systems")
                    .join(str_of(item, "system")?)
                    .to_string_lossy()
                    .into_owned(),
                formula: str_of(item, "formula")?.to_owned(),
                expect,
                over_limit: matches!(item.get("over_limit"), Some(Json::Bool(true))),
            })
        })
        .collect()
}

/// One completed check as a leg of `run.py` saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The manifest id.
    pub id: String,
    /// Exit code (CLI) or job code (serve).
    pub code: i64,
    /// The report text.
    pub stdout: String,
}

/// Reads a JSON-lines results file of `{"id", "code", "stdout"}` objects.
pub fn read_outcomes(path: &Path) -> Result<Vec<Outcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = rl_json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let code = match v.get("code") {
                Some(Json::Int(c)) => *c,
                _ => return Err("missing integer field `code`".to_owned()),
            };
            Ok(Outcome {
                id: str_of(&v, "id")?.to_owned(),
                code,
                stdout: str_of(&v, "stdout")?.to_owned(),
            })
        })
        .collect()
}
