//! Repo-specific static lint pass for the Millipede simulator.
//!
//! The paper's headline mechanisms — per-entry PFT full/empty bits, DF-counter
//! flow control (§IV-B/C), hill-climbing rate matching (§IV-F) — are
//! distributed-protocol state machines where a silent modeling bug produces
//! plausible-but-wrong speedup numbers. This library is a self-contained,
//! line-based lint pass over every `crates/*/src/**/*.rs` and `src/**/*.rs`
//! file enforcing the hygiene rules that keep the simulator deterministic
//! and auditable:
//!
//! | Lint | Rule |
//! |------|------|
//! | `cast-truncation`  | no narrowing or float `as` casts in cycle/timing arithmetic — use `try_into` or explicit widening |
//! | `hash-iteration`   | no `std::collections` hash containers in simulator state (nondeterministic iteration order) — use `BTreeMap`/`BTreeSet` or sort keys |
//! | `unwrap-in-hot-path` | no `.unwrap()` / `.expect()` in non-test simulator hot paths |
//! | `float-eq`         | no `==` / `!=` against floating-point literals |
//! | `module-doc`       | every module starts with a `//!` doc comment |
//! | `wall-clock`       | no `Instant` / `SystemTime` in telemetry or metrics code — every recorded timestamp must be simulated time; the one exemption is the metrics crate's self-profiling module |
//! | `raw-fetch`        | no raw `.fetch(` instruction decode in timing-model per-cycle paths — models must execute through `DecodedProgram` so every instruction is decoded exactly once |
//! | `channel-edge`     | no `.tick(` / `.pop_completed(` / `.next_event_at(` in timing-model crates — the memory channel's edge has one home, `engine::drive` |
//!
//! A violation can be suppressed, with a reason, by a comment on the same
//! line or the line above: `// audit:allow(<lint>): <reason>`.
//!
//! The scanner is deliberately line-based and heuristic (no rustc
//! dependency, so it runs in the offline build): string literals and
//! comments are stripped before matching, and everything after a top-level
//! `#[cfg(test)]` is treated as test code (the repo convention keeps test
//! modules at the bottom of each file).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lints the pass enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Narrowing/float `as` cast in cycle or timing arithmetic.
    CastTruncation,
    /// Hash container (nondeterministic iteration order) in simulator state.
    HashIteration,
    /// `.unwrap()` / `.expect()` in a non-test simulator hot path.
    UnwrapInHotPath,
    /// `==` / `!=` comparison against a floating-point literal.
    FloatEq,
    /// Missing `//!` module documentation.
    ModuleDoc,
    /// Host wall-clock (`Instant` / `SystemTime`) in telemetry code.
    WallClock,
    /// Raw `.fetch(` instruction decode in a timing-model per-cycle path.
    RawFetch,
    /// A memory-channel edge (`.tick(`, `.pop_completed(`,
    /// `.next_event_at(`) driven from a timing-model crate.
    ChannelEdge,
}

impl Lint {
    /// All lints, in diagnostic-catalogue order.
    pub const ALL: [Lint; 8] = [
        Lint::CastTruncation,
        Lint::HashIteration,
        Lint::UnwrapInHotPath,
        Lint::FloatEq,
        Lint::ModuleDoc,
        Lint::WallClock,
        Lint::RawFetch,
        Lint::ChannelEdge,
    ];

    /// The lint's kebab-case name, as used in `audit:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::CastTruncation => "cast-truncation",
            Lint::HashIteration => "hash-iteration",
            Lint::UnwrapInHotPath => "unwrap-in-hot-path",
            Lint::FloatEq => "float-eq",
            Lint::ModuleDoc => "module-doc",
            Lint::WallClock => "wall-clock",
            Lint::RawFetch => "raw-fetch",
            Lint::ChannelEdge => "channel-edge",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated lint.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Crates whose non-test code is considered a simulator hot path for the
/// `unwrap-in-hot-path` lint. Driver and CLI code may unwrap on user
/// input; the cycle-level models may not.
const HOT_PATH_CRATES: [&str; 8] = [
    "crates/core",
    "crates/dram",
    "crates/mem",
    "crates/engine",
    "crates/gpgpu",
    "crates/ssmc",
    "crates/multicore",
    "crates/telemetry",
];

/// Crates whose code must never read the host clock for the `wall-clock`
/// lint. Telemetry output feeds determinism-sensitive artifacts (traces,
/// CSVs, digest differentials), so every timestamp it records must come
/// from the simulated clock; the metrics registry feeds run manifests,
/// where the only sanctioned host-time consumer is the dedicated
/// self-profiling module in [`WALL_CLOCK_EXEMPT_FILES`].
const NO_WALL_CLOCK_CRATES: [&str; 2] = ["crates/telemetry", "crates/metrics"];

/// Files inside [`NO_WALL_CLOCK_CRATES`] that are allowed to read the host
/// clock: exactly the metrics crate's self-profiling module, whose entire
/// purpose is to measure host phase walls for the run manifest.
const WALL_CLOCK_EXEMPT_FILES: [&str; 1] = ["crates/metrics/src/selfprof.rs"];

/// Timing-model crates whose per-cycle paths must execute through the
/// predecoded interpreter (`millipede-engine`'s `DecodedProgram`) for the
/// `raw-fetch` lint. Decoding an instruction with `Program::fetch` every
/// cycle is the double-decode pattern the predecode refactor removed; the
/// reference interpreter (`crates/engine`), the static tooling, and the
/// tests are exempt. The same crates may not drive the memory channel
/// (the `channel-edge` lint): `engine::drive` ticks the controller, pops
/// its fills and reads its next event for every model.
const MODEL_CRATES: [&str; 4] = [
    "crates/core",
    "crates/ssmc",
    "crates/gpgpu",
    "crates/multicore",
];

/// The `MemoryController` calls that make up a channel edge (the
/// `channel-edge` lint).
const CHANNEL_EDGE_CALLS: [&str; 3] = [".tick(", ".pop_completed(", ".next_event_at("];

/// Identifier fragments that mark a line as cycle/timing arithmetic.
fn is_timing_token(tok: &str) -> bool {
    let t = tok.to_ascii_lowercase();
    t.contains("cycle")
        || t.contains("period")
        || t.contains("tick")
        || t.contains("elapsed")
        || t.contains("latency")
        || t.contains("time")
        || t == "ps"
        || t == "now"
        || t.ends_with("_ps")
        || t.starts_with("ps_")
        || t.starts_with("t_")
        || t.ends_with("_at")
}

/// Strips string literals, char literals, and `//` comments from one line of
/// source, so pattern matching never fires inside literal text. Returns the
/// remaining code text.
fn strip_literals_and_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '"' => {
                // Skip the string literal body (with escape handling).
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push('"');
                out.push('"');
            }
            '\'' => {
                // Char literal ('x', '\n', '\'') vs lifetime ('a in &'a T).
                let is_char_lit = match bytes.get(i + 1) {
                    Some('\\') => true,
                    Some(_) => bytes.get(i + 2) == Some(&'\''),
                    None => false,
                };
                if is_char_lit {
                    i += 1;
                    if bytes.get(i) == Some(&'\\') {
                        i += 2; // escape + escaped char
                    } else {
                        i += 1;
                    }
                    if bytes.get(i) == Some(&'\'') {
                        i += 1;
                    }
                    out.push('\'');
                    out.push('\'');
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'/') => break, // comment to EOL
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Extracts the `audit:allow(...)` lint names from a raw source line.
fn allowed_lints(raw_line: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    let mut rest = raw_line;
    while let Some(pos) = rest.find("audit:allow(") {
        rest = &rest[pos + "audit:allow(".len()..];
        if let Some(end) = rest.find(')') {
            let name = rest[..end].trim();
            for lint in Lint::ALL {
                if lint.name() == name {
                    out.push(lint.name());
                }
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    out
}

/// Identifier-ish tokens (`[A-Za-z0-9_]+`) of a code line.
fn tokens(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect()
}

/// Whether `code` contains ` as <ty>` for any of `tys` as a whole token.
fn has_as_cast_to(code: &str, tys: &[&str]) -> bool {
    let toks = tokens(code);
    for w in toks.windows(2) {
        if w[0] == "as" && tys.contains(&w[1]) {
            return true;
        }
    }
    false
}

/// Whether `code` contains a floating-point literal (`1.5`, `2.`, `1e6`
/// forms with a dot) or names an `f32`/`f64` type.
fn has_float(code: &str) -> bool {
    for tok in tokens(code) {
        if tok == "f32" || tok == "f64" {
            return true;
        }
    }
    // A digit immediately followed by '.' followed by a digit: float literal
    // (tuple indexing like `pair.0` has no digit before the dot; ranges like
    // `0..n` have no digit between the dots).
    let chars: Vec<char> = code.chars().collect();
    for i in 1..chars.len().saturating_sub(1) {
        if chars[i] == '.' && chars[i - 1].is_ascii_digit() && chars[i + 1].is_ascii_digit() {
            return true;
        }
    }
    false
}

/// Whether either operand of an `==` / `!=` in `code` is a float literal.
fn has_float_literal_comparison(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let n = chars.len();
    let float_at = |mut i: usize, forward: bool| -> bool {
        // Skip whitespace, then check the adjacent token for a float shape.
        if forward {
            while i < n && chars[i].is_whitespace() {
                i += 1;
            }
            let start = i;
            while i < n && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == '_') {
                i += 1;
            }
            let tok: String = chars[start..i].iter().collect();
            tok.contains('.') && tok.chars().next().is_some_and(|c| c.is_ascii_digit())
        } else {
            let mut j = i;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
            let end = j;
            while j > 0
                && (chars[j - 1].is_ascii_digit() || chars[j - 1] == '.' || chars[j - 1] == '_')
            {
                j -= 1;
            }
            let tok: String = chars[j..end].iter().collect();
            tok.contains('.') && tok.chars().next().is_some_and(|c| c.is_ascii_digit())
        }
    };
    for i in 0..n.saturating_sub(1) {
        if (chars[i] == '=' || chars[i] == '!') && chars[i + 1] == '=' {
            // Exclude `<=`, `>=`, `==` continuation and `=>`.
            if i > 0 && matches!(chars[i - 1], '<' | '>' | '=' | '!') {
                continue;
            }
            if chars.get(i + 2) == Some(&'=') {
                continue;
            }
            if float_at(i + 2, true) || (i > 0 && float_at(i, false)) {
                return true;
            }
        }
    }
    false
}

/// Scans one source file's content. `rel_path` is workspace-root-relative
/// with `/` separators (used for lint scoping and diagnostics).
pub fn scan_source(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let hot_path = HOT_PATH_CRATES.iter().any(|c| rel_path.starts_with(c));
    let no_wall_clock = NO_WALL_CLOCK_CRATES.iter().any(|c| rel_path.starts_with(c))
        && !WALL_CLOCK_EXEMPT_FILES.contains(&rel_path);
    let model_crate = MODEL_CRATES.iter().any(|c| rel_path.starts_with(c));
    let hash_names: [String; 2] = [
        ["Hash", "Map"].concat(), // split so the auditor never flags itself
        ["Hash", "Set"].concat(),
    ];

    // module-doc: the first line must open a `//!` module doc.
    if !content
        .lines()
        .next()
        .unwrap_or("")
        .trim_start()
        .starts_with("//!")
    {
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: 1,
            lint: Lint::ModuleDoc,
            message: "module does not start with a `//!` doc comment".to_string(),
        });
    }

    let mut in_test = false;
    let mut prev_allows: Vec<&'static str> = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = raw.trim_start();
        if trimmed == "#[cfg(test)]" {
            // Repo convention: the test module closes the file.
            in_test = true;
        }
        let line_allows = allowed_lints(raw);
        let allowed =
            |lint: Lint| line_allows.contains(&lint.name()) || prev_allows.contains(&lint.name());
        // A comment-only line carries its allows forward to the next code line.
        let comment_only = trimmed.starts_with("//") || trimmed.is_empty();

        if !in_test && !comment_only {
            let code = strip_literals_and_comments(raw);
            let toks = tokens(&code);

            // hash-iteration: hash containers anywhere in simulator code.
            if !allowed(Lint::HashIteration)
                && toks.iter().any(|t| hash_names.iter().any(|h| h == t))
            {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::HashIteration,
                    message: format!(
                        "{} iteration order is nondeterministic; use BTreeMap/BTreeSet or sort keys",
                        hash_names.join("/")
                    ),
                });
            }

            // cast-truncation: narrowing or lossy casts on timing lines.
            if !allowed(Lint::CastTruncation) && toks.iter().any(|t| is_timing_token(t)) {
                let narrowing = has_as_cast_to(&code, &["u8", "u16", "u32", "i8", "i16", "i32"]);
                let lossy_float =
                    has_float(&code) && has_as_cast_to(&code, &["u64", "i64", "usize", "TimePs"]);
                if narrowing || lossy_float {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: lineno,
                        lint: Lint::CastTruncation,
                        message: if narrowing {
                            "narrowing `as` cast in cycle/timing arithmetic; use try_into or widen"
                                .to_string()
                        } else {
                            "lossy float→integer `as` cast in cycle/timing arithmetic".to_string()
                        },
                    });
                }
            }

            // unwrap-in-hot-path: simulator hot-path crates only.
            if hot_path
                && !allowed(Lint::UnwrapInHotPath)
                && (code.contains(".unwrap()") || code.contains(".expect("))
            {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::UnwrapInHotPath,
                    message: "unwrap/expect in simulator hot path; handle the failure case"
                        .to_string(),
                });
            }

            // wall-clock: host time sources in determinism-critical crates.
            if no_wall_clock
                && !allowed(Lint::WallClock)
                && toks.iter().any(|t| *t == "Instant" || *t == "SystemTime")
            {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::WallClock,
                    message: "host wall-clock in telemetry/metrics code; timestamps must be \
                              simulated time (self-profiling belongs in crates/metrics/src/selfprof.rs)"
                        .to_string(),
                });
            }

            // raw-fetch: per-instruction decode in a timing-model crate.
            // `.fetch(` is `Program::fetch` (enum decode per call); models
            // must go through `DecodedProgram::fetch`/`commit`, whose
            // receiver is the decoded table, not a `Program` value. The
            // match is literal, so `fetch_add`-style atomics never fire.
            if model_crate && !allowed(Lint::RawFetch) && code.contains(".fetch(") {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::RawFetch,
                    message:
                        "raw `.fetch(` decode in a timing-model per-cycle path; execute through DecodedProgram"
                            .to_string(),
                });
            }

            // channel-edge: the controller's clock edge driven by a model.
            // The driver owns the channel; a model only enqueues requests
            // and applies the fills it is handed.
            if model_crate
                && !allowed(Lint::ChannelEdge)
                && CHANNEL_EDGE_CALLS.iter().any(|c| code.contains(c))
            {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::ChannelEdge,
                    message: "memory-channel edge driven from a timing model; engine::drive \
                              ticks the controller and hands the model its fills"
                        .to_string(),
                });
            }

            // float-eq: exact comparison against a float literal.
            if !allowed(Lint::FloatEq) && has_float_literal_comparison(&code) {
                diags.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::FloatEq,
                    message: "exact `==`/`!=` against a float literal; compare with a tolerance"
                        .to_string(),
                });
            }
        }

        prev_allows = if comment_only {
            let mut carried = prev_allows;
            carried.extend(line_allows);
            carried
        } else {
            line_allows
        };
    }
    diags
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source roots the pass audits, relative to the workspace root:
/// every crate's `src/` tree plus the facade crate's `src/`.
fn audit_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        roots.push(facade_src);
    }
    Ok(roots)
}

/// Runs the full lint pass over the workspace rooted at `root`.
///
/// Returns every diagnostic, sorted by file then line. An empty result means
/// the tree is clean.
pub fn audit_tree(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let src_roots = audit_roots(root)?;
    if src_roots.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no `crates/*/src` or `src` directory under {} — not a workspace root?",
                root.display()
            ),
        ));
    }
    let mut files = Vec::new();
    for src_root in src_roots {
        collect_rs_files(&src_root, &mut files)?;
    }
    let mut diags = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&file)?;
        diags.extend(scan_source(&rel, &content));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(diags)
}

/// Locates the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(rel: &str, src: &str) -> Vec<Lint> {
        scan_source(rel, src).into_iter().map(|d| d.lint).collect()
    }

    #[test]
    fn clean_module_passes() {
        let src = "//! Docs.\n\npub fn f(x: u64) -> u64 { x + 1 }\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn missing_module_doc_flagged() {
        assert_eq!(
            lints_of("crates/core/src/x.rs", "pub fn f() {}\n"),
            vec![Lint::ModuleDoc]
        );
    }

    #[test]
    fn hash_container_flagged_and_allowed() {
        let name = ["Hash", "Map"].concat();
        let src = format!("//! D.\nuse std::collections::{name};\n");
        assert_eq!(
            lints_of("crates/mem/src/x.rs", &src),
            vec![Lint::HashIteration]
        );
        let allowed = format!(
            "//! D.\n// audit:allow(hash-iteration): keyed lookups only, never iterated\nuse std::collections::{name};\n"
        );
        assert!(scan_source("crates/mem/src/x.rs", &allowed).is_empty());
    }

    #[test]
    fn timing_narrowing_cast_flagged() {
        let src = "//! D.\nfn f(cycle: u64) -> u32 { cycle as u32 }\n";
        assert_eq!(
            lints_of("crates/core/src/x.rs", src),
            vec![Lint::CastTruncation]
        );
        // The same cast away from timing identifiers is not a timing hazard.
        let src = "//! D.\nfn f(index: u64) -> u32 { index as u32 }\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn lossy_float_timing_cast_flagged() {
        let src = "//! D.\nfn f(period: u64) -> u64 { (period as f64 * 1.05) as u64 }\n";
        assert_eq!(
            lints_of("crates/core/src/x.rs", src),
            vec![Lint::CastTruncation]
        );
    }

    #[test]
    fn unwrap_scoping_hot_path_vs_driver() {
        let src = "//! D.\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert_eq!(
            lints_of("crates/dram/src/x.rs", src),
            vec![Lint::UnwrapInHotPath]
        );
        // Driver crates (sim/bench/workloads/...) may unwrap.
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_sections_are_skipped() {
        let name = ["Hash", "Set"].concat();
        let src = format!(
            "//! D.\npub fn f() {{}}\n\n#[cfg(test)]\nmod tests {{\n    use std::collections::{name};\n    fn g(v: Option<u32>) -> u32 {{ v.unwrap() }}\n}}\n"
        );
        assert!(scan_source("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let src = "//! D.\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(
            lints_of("crates/workloads/src/x.rs", src),
            vec![Lint::FloatEq]
        );
        let src = "//! D.\nfn f(x: u64) -> bool { x == 10 }\n";
        assert!(scan_source("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn string_and_comment_content_never_fires() {
        let name = ["Hash", "Map"].concat();
        let src = format!(
            "//! D.\nfn f() -> &'static str {{ \"{name} .unwrap() cycle as u32 == 1.0\" }}\n"
        );
        assert!(scan_source("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn allow_on_previous_line_carries() {
        let src = "//! D.\n// audit:allow(float-eq): sentinel comparison\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_scoped_to_telemetry() {
        let src = "//! D.\nfn f() -> std::time::Instant { std::time::Instant::now() }\n";
        assert_eq!(
            lints_of("crates/telemetry/src/x.rs", src),
            vec![Lint::WallClock]
        );
        // Outside telemetry, host timing is fine (profiling wall times).
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
        // SystemTime is equally forbidden.
        let src = "//! D.\nuse std::time::SystemTime;\n";
        assert_eq!(
            lints_of("crates/telemetry/src/x.rs", src),
            vec![Lint::WallClock]
        );
        // And the escape hatch works.
        let src =
            "//! D.\n// audit:allow(wall-clock): doc example only\nuse std::time::SystemTime;\n";
        assert!(scan_source("crates/telemetry/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_covers_metrics_except_selfprof() {
        // Negative fixture: host time anywhere else in crates/metrics is a
        // violation...
        let src = "//! D.\nfn f() -> std::time::Instant { std::time::Instant::now() }\n";
        assert_eq!(
            lints_of("crates/metrics/src/lib.rs", src),
            vec![Lint::WallClock]
        );
        assert_eq!(
            lints_of("crates/metrics/src/json.rs", src),
            vec![Lint::WallClock]
        );
        // ...but the dedicated self-profiling module is the one sanctioned
        // consumer and passes without an allow comment.
        assert!(scan_source("crates/metrics/src/selfprof.rs", src).is_empty());
    }

    #[test]
    fn raw_fetch_scoped_to_model_crates() {
        let src = "//! D.\nfn f(p: &Program, pc: u32) -> Instr { *p.fetch(pc) }\n";
        for model in [
            "crates/core",
            "crates/ssmc",
            "crates/gpgpu",
            "crates/multicore",
        ] {
            assert_eq!(
                lints_of(&format!("{model}/src/x.rs"), src),
                vec![Lint::RawFetch],
                "{model}"
            );
        }
        // The reference interpreter and static tooling decode freely.
        assert!(scan_source("crates/engine/src/x.rs", src).is_empty());
        assert!(scan_source("crates/verify/src/x.rs", src).is_empty());
        // Atomics' fetch_add/fetch_or never fire the literal `.fetch(` match.
        let atomics = "//! D.\nfn f(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) }\n";
        assert!(scan_source("crates/core/src/x.rs", atomics).is_empty());
        // And the escape hatch works.
        let allowed = "//! D.\n// audit:allow(raw-fetch): one-shot decode outside the cycle loop\nfn f(p: &Program) -> Instr { *p.fetch(0) }\n";
        assert!(scan_source("crates/core/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn channel_edge_scoped_to_model_crates() {
        for call in [
            "mc.tick(now)",
            "mc.pop_completed(now)",
            "mc.next_event_at()",
        ] {
            let src = format!("//! D.\nfn f(mc: &mut MemoryController) {{ {call}; }}\n");
            for model in [
                "crates/core",
                "crates/ssmc",
                "crates/gpgpu",
                "crates/multicore",
            ] {
                assert_eq!(
                    lints_of(&format!("{model}/src/x.rs"), &src),
                    vec![Lint::ChannelEdge],
                    "{model}: {call}"
                );
            }
            // The driver and the controller's own crate own the edge.
            assert!(scan_source("crates/engine/src/x.rs", &src).is_empty());
            assert!(scan_source("crates/dram/src/x.rs", &src).is_empty());
        }
        // Enqueueing a request is the model's half of the channel.
        let push =
            "//! D.\nfn f(mc: &mut MemoryController, r: Request) { let _ = mc.try_push(r, 0); }\n";
        assert!(scan_source("crates/core/src/x.rs", push).is_empty());
        // Tests may drive a controller directly.
        let test = "//! D.\n#[cfg(test)]\nmod tests {\n    fn f(mc: &mut MemoryController) { mc.tick(0); }\n}\n";
        assert!(scan_source("crates/gpgpu/src/x.rs", test).is_empty());
    }

    #[test]
    fn channel_edge_escape_hatch() {
        let same_line = "//! D.\nfn f(mc: &mut MemoryController) { mc.tick(0); } // audit:allow(channel-edge): standalone controller probe\n";
        assert!(scan_source("crates/ssmc/src/x.rs", same_line).is_empty());
        let line_above = "//! D.\n// audit:allow(channel-edge): standalone controller probe\nfn f(mc: &MemoryController) -> Option<u64> { mc.next_event_at() }\n";
        assert!(scan_source("crates/ssmc/src/x.rs", line_above).is_empty());
        // An allow for another lint does not cover it.
        let wrong = "//! D.\n// audit:allow(raw-fetch): not this lint\nfn f(mc: &mut MemoryController) { mc.tick(0); }\n";
        assert_eq!(
            lints_of("crates/ssmc/src/x.rs", wrong),
            vec![Lint::ChannelEdge]
        );
    }

    #[test]
    fn diagnostics_render_file_line() {
        let d = scan_source("crates/core/src/x.rs", "fn f() {}\n").remove(0);
        assert_eq!(
            format!("{d}"),
            "crates/core/src/x.rs:1: module-doc: module does not start with a `//!` doc comment"
        );
    }
}
