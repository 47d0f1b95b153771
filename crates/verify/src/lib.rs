//! Static verification of mini-ISA kernel programs.
//!
//! A malformed kernel — an uninitialized register, an out-of-bounds local
//! store, a loop that never consumes its prefetch-buffer entry — is
//! otherwise only discovered cycle-by-cycle at simulation time, sometimes as
//! a silent wrong answer or a pbuf flow-control deadlock. This crate catches
//! those classes of bugs *before* a [`Program`] reaches any simulated
//! architecture, mirroring the PIM-programmability argument that static
//! tooling is a first-order enabler for near-memory kernels.
//!
//! [`verify_program`] runs CFG-based analyses (reachability, definite
//! assignment, constant propagation, liveness, divergence taint, natural
//! loops, post-dominance) and emits diagnostics with stable `MV0xx` codes:
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | MV001 | warning  | unreachable code |
//! | MV002 | error    | read of a possibly-uninitialized register |
//! | MV003 | error    | reachable code with no path to `halt` |
//! | MV004 | error    | constant-proven local-memory access out of bounds |
//! | MV005 | error    | constant-proven misaligned memory access |
//! | MV006 | error    | constant-proven input-space access out of bounds |
//! | MV007 | warning  | branch with no computable reconvergence PC |
//! | MV008 | error    | input-reading loop never advances its address register |
//! | MV009 | warning  | barrier control-dependent on a divergent branch |
//! | MV010 | warning  | dead register write (strict mode only) |
//!
//! Findings can be suppressed per instruction with a
//! `# verify:allow(MVxxx): reason` comment in assembler source (mirroring
//! the repo's `audit:allow` convention) or per code via
//! [`VerifyConfig::allow`]. Reports render to JSON
//! ([`VerifyReport::to_json`]) for CI consumption, and
//! [`annotate`] interleaves the analysis facts into a disassembly listing.

pub mod analysis;
pub mod checks;
pub mod report;

use analysis::{reg_bit, Analysis, EntryState, RegSet};
use millipede_isa::{assemble_with_map, reg, AsmError, Program, SourceMap};
use std::fmt;

pub use report::reports_to_json;

/// Stable diagnostic codes. Codes are append-only: a published `MV0xx`
/// number never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Unreachable code.
    Mv001,
    /// Read of a possibly-uninitialized register.
    Mv002,
    /// Reachable code with no path to `halt`.
    Mv003,
    /// Constant-proven local-memory access out of bounds.
    Mv004,
    /// Constant-proven misaligned memory access.
    Mv005,
    /// Constant-proven input-space access out of bounds.
    Mv006,
    /// Branch with no computable reconvergence PC.
    Mv007,
    /// Input-reading loop that never advances its address register.
    Mv008,
    /// Barrier control-dependent on a thread-divergent branch.
    Mv009,
    /// Dead register write (reported in strict mode only).
    Mv010,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 10] = [
        Code::Mv001,
        Code::Mv002,
        Code::Mv003,
        Code::Mv004,
        Code::Mv005,
        Code::Mv006,
        Code::Mv007,
        Code::Mv008,
        Code::Mv009,
        Code::Mv010,
    ];

    /// The stable textual code (`"MV004"`).
    pub fn name(self) -> &'static str {
        match self {
            Code::Mv001 => "MV001",
            Code::Mv002 => "MV002",
            Code::Mv003 => "MV003",
            Code::Mv004 => "MV004",
            Code::Mv005 => "MV005",
            Code::Mv006 => "MV006",
            Code::Mv007 => "MV007",
            Code::Mv008 => "MV008",
            Code::Mv009 => "MV009",
            Code::Mv010 => "MV010",
        }
    }

    /// One-line description of what the code means.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Mv001 => "unreachable code",
            Code::Mv002 => "read of a possibly-uninitialized register",
            Code::Mv003 => "reachable code with no path to halt",
            Code::Mv004 => "local-memory access out of bounds",
            Code::Mv005 => "misaligned memory access",
            Code::Mv006 => "input-space access out of bounds",
            Code::Mv007 => "branch with no computable reconvergence PC",
            Code::Mv008 => "input-reading loop never advances its address register",
            Code::Mv009 => "barrier control-dependent on a divergent branch",
            Code::Mv010 => "dead register write",
        }
    }

    /// The severity this code reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::Mv002 | Code::Mv003 | Code::Mv004 | Code::Mv005 | Code::Mv006 | Code::Mv008 => {
                Severity::Error
            }
            Code::Mv001 | Code::Mv007 | Code::Mv009 | Code::Mv010 => Severity::Warning,
        }
    }

    /// Parses a textual code (`"MV004"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The kernel will (or can) misbehave at simulation time.
    Error,
    /// Suspicious but not provably wrong.
    Warning,
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity of [`Diagnostic::code`].
    pub severity: Severity,
    /// PC of the offending (or first offending) instruction.
    pub pc: u32,
    /// 1-based source line, when the program came from the assembler.
    pub line: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}] pc {}", self.code, self.pc)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Launch-ABI registers defined at kernel entry (`r1`–`r6`; see the grid
/// launcher's ABI constants).
pub fn abi_entry_defined() -> RegSet {
    (1..=6).fold(0, |s, i| s | reg_bit(reg::r(i)))
}

/// Launch-ABI registers whose values differ across threads (`r1`, the lane
/// offset).
pub fn abi_entry_divergent() -> RegSet {
    reg_bit(reg::r(1))
}

/// Verifier configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Per-thread local-memory size in bytes, when known. `None` disables
    /// MV004 (local bounds).
    pub local_bytes: Option<u64>,
    /// Input-dataset size in bytes, when known. `None` disables MV006.
    pub input_bytes: Option<u64>,
    /// Registers assumed defined at entry (default: the launch ABI,
    /// `r1`–`r6`).
    pub entry_defined: RegSet,
    /// Registers assumed thread-divergent at entry (default: `r1`).
    pub entry_divergent: RegSet,
    /// Enables opportunistic warnings (MV010 dead writes).
    pub strict: bool,
    /// Codes suppressed program-wide (the config-level escape hatch).
    pub allow: Vec<Code>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            local_bytes: None,
            input_bytes: None,
            entry_defined: abi_entry_defined(),
            entry_divergent: abi_entry_divergent(),
            strict: false,
            allow: Vec::new(),
        }
    }
}

impl VerifyConfig {
    /// Applies `# verify-config:` directives found in assembler source, so
    /// fixture kernels are self-describing. Recognized keys:
    /// `local-bytes=<n>`, `input-bytes=<n>`, and the bare flag `strict`.
    pub fn apply_source_directives(&mut self, source: &str) {
        for line in source.lines() {
            let Some(rest) = line.trim().strip_prefix('#') else {
                continue;
            };
            let Some(rest) = rest.trim().strip_prefix("verify-config:") else {
                continue;
            };
            for tok in rest.split_whitespace() {
                if tok == "strict" {
                    self.strict = true;
                } else if let Some(v) = tok.strip_prefix("local-bytes=") {
                    self.local_bytes = v.parse().ok();
                } else if let Some(v) = tok.strip_prefix("input-bytes=") {
                    self.input_bytes = v.parse().ok();
                }
            }
        }
    }
}

/// A verification run's outcome.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Program name.
    pub program: String,
    /// Static instruction count.
    pub instructions: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// Conditional-branch count.
    pub branches: usize,
    /// Natural-loop count.
    pub loops: usize,
    /// Surviving diagnostics, ordered by PC then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by `verify:allow` or [`VerifyConfig::allow`].
    pub suppressed: usize,
}

impl VerifyReport {
    /// Whether the program verified with zero (unsuppressed) diagnostics.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether a diagnostic with `code` survived suppression.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "{}: clean ({} instrs, {} blocks, {} loops, {} suppressed)",
                self.program, self.instructions, self.blocks, self.loops, self.suppressed
            )
        } else {
            writeln!(
                f,
                "{}: {} error(s), {} warning(s):",
                self.program,
                self.errors(),
                self.warnings()
            )?;
            for (i, d) in self.diagnostics.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

/// Error from the assemble-and-verify pipeline.
#[derive(Debug)]
pub enum VerifyError {
    /// The source failed to assemble.
    Asm(AsmError),
    /// The program assembled but the verifier found problems.
    Rejected(VerifyReport),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Asm(e) => write!(f, "{e}"),
            VerifyError::Rejected(r) => write!(f, "kernel rejected by verifier:\n{r}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<AsmError> for VerifyError {
    fn from(e: AsmError) -> Self {
        VerifyError::Asm(e)
    }
}

fn entry_state(config: &VerifyConfig) -> EntryState {
    EntryState {
        defined: config.entry_defined,
        divergent: config.entry_divergent,
    }
}

fn build_report(
    program: &Program,
    config: &VerifyConfig,
    map: Option<&SourceMap>,
) -> (Analysis, VerifyReport) {
    let analysis = Analysis::compute(program, entry_state(config));
    let (mut diagnostics, suppressed) = checks::run(program, &analysis, config, map);
    if let Some(map) = map {
        for d in &mut diagnostics {
            d.line = map.line_of(d.pc);
        }
    }
    let report = VerifyReport {
        program: program.name().to_string(),
        instructions: program.len(),
        blocks: analysis.cfg.blocks().len(),
        branches: program.static_branches(),
        loops: analysis.loops.len(),
        diagnostics,
        suppressed,
    };
    (analysis, report)
}

/// Verifies an already-built [`Program`] (no source spans available).
pub fn verify_program(program: &Program, config: &VerifyConfig) -> VerifyReport {
    build_report(program, config, None).1
}

/// Verifies a program together with its assembler [`SourceMap`], enabling
/// source lines in diagnostics and the `verify:allow` escape hatch.
pub fn verify_with_map(program: &Program, map: &SourceMap, config: &VerifyConfig) -> VerifyReport {
    build_report(program, config, Some(map)).1
}

/// Assembles `source` and verifies it, honoring `# verify-config:`
/// directives embedded in the source. Returns the program and report
/// without judging cleanliness.
pub fn verify_source(
    name: &str,
    source: &str,
    base: &VerifyConfig,
) -> Result<(Program, VerifyReport), AsmError> {
    let mut config = base.clone();
    config.apply_source_directives(source);
    let (program, map) = assemble_with_map(name, source)?;
    let report = verify_with_map(&program, &map, &config);
    Ok((program, report))
}

/// The check-before-simulate pipeline: assembles `source`, verifies it, and
/// only returns the [`Program`] when the report is clean.
pub fn assemble_verified(
    name: &str,
    source: &str,
    config: &VerifyConfig,
) -> Result<Program, VerifyError> {
    let (program, report) = verify_source(name, source, config)?;
    if report.is_clean() {
        Ok(program)
    } else {
        Err(VerifyError::Rejected(report))
    }
}

/// Disassembles `program` with CFG structure and verifier findings
/// interleaved as comments.
pub fn annotate(program: &Program, config: &VerifyConfig) -> String {
    let (analysis, report) = build_report(program, config, None);
    report::annotated_listing(program, &analysis, &report)
}

/// Like [`annotate`] but starting from assembler source, so `verify-config`
/// directives and `verify:allow` suppressions in the source are honored.
pub fn annotate_source(name: &str, source: &str, base: &VerifyConfig) -> Result<String, AsmError> {
    let mut config = base.clone();
    config.apply_source_directives(source);
    let (program, map) = assemble_with_map(name, source)?;
    let (analysis, report) = build_report(&program, &config, Some(&map));
    Ok(report::annotated_listing(&program, &analysis, &report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify_asm(src: &str) -> VerifyReport {
        verify_source("t", src, &VerifyConfig::default()).unwrap().1
    }

    fn codes(report: &VerifyReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_loop_kernel_passes() {
        let r = verify_asm(
            "
            li   r10, 0
            add  r11, r1, r0
        top:
            ld.in r12, 0(r11)
            addi r11, r11, 4
            addi r10, r10, 1
            blt  r10, r2, top
            st.local r12, 0(r0)
            halt
        ",
        );
        assert!(r.is_clean(), "unexpected diagnostics: {r}");
        assert_eq!(r.loops, 1);
    }

    #[test]
    fn mv001_unreachable_code() {
        let r = verify_asm("jmp over\nli r10, 1\nover:\nhalt\n");
        assert_eq!(codes(&r), vec![Code::Mv001]);
        assert_eq!(r.diagnostics[0].pc, 1);
        assert_eq!(r.diagnostics[0].line, Some(2));
    }

    #[test]
    fn mv002_uninitialized_read() {
        let r = verify_asm("add r10, r11, r0\nhalt\n");
        assert_eq!(codes(&r), vec![Code::Mv002]);
        assert!(r.diagnostics[0].message.contains("r11"));
    }

    #[test]
    fn mv002_join_requires_both_paths() {
        // r10 is only written on the taken path: a must-analysis flags the
        // read at the join.
        let r = verify_asm(
            "
            beq r1, r2, set
            jmp join
        set:
            li r10, 1
        join:
            add r11, r10, r0
            halt
        ",
        );
        assert!(codes(&r).contains(&Code::Mv002));
    }

    #[test]
    fn mv003_no_path_to_halt() {
        let r = verify_asm("top:\naddi r10, r0, 1\njmp top\n");
        assert_eq!(codes(&r), vec![Code::Mv003]);
    }

    #[test]
    fn mv004_local_out_of_bounds() {
        let r = verify_asm(
            "
            # verify-config: local-bytes=64
            li r10, 64
            st.local r0, 0(r10)
            halt
        ",
        );
        assert_eq!(codes(&r), vec![Code::Mv004]);
    }

    #[test]
    fn mv004_respects_bound_minus_one_word() {
        let r = verify_asm(
            "
            # verify-config: local-bytes=64
            li r10, 60
            st.local r0, 0(r10)
            halt
        ",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn mv005_misaligned_access() {
        let r = verify_asm("li r10, 6\nld.local r11, 0(r10)\nhalt\n");
        assert_eq!(codes(&r), vec![Code::Mv005]);
    }

    #[test]
    fn mv006_input_out_of_bounds() {
        let r = verify_asm(
            "
            # verify-config: input-bytes=128
            ld.in r10, 128(r0)
            halt
        ",
        );
        assert_eq!(codes(&r), vec![Code::Mv006]);
    }

    #[test]
    fn mv007_branch_reconverges_only_at_exit() {
        let r = verify_asm("beq r1, r2, other\nhalt\nother:\nhalt\n");
        assert_eq!(codes(&r), vec![Code::Mv007]);
    }

    #[test]
    fn mv008_loop_without_address_progress() {
        let r = verify_asm(
            "
            li r10, 0
            li r11, 0
        top:
            ld.in r12, 0(r11)
            addi r10, r10, 1
            blt r10, r2, top
            halt
        ",
        );
        assert_eq!(codes(&r), vec![Code::Mv008]);
    }

    #[test]
    fn mv009_barrier_under_divergent_branch() {
        let r = verify_asm(
            "
            ld.in r10, 0(r1)
            beq r10, r0, skip
            bar
        skip:
            halt
        ",
        );
        assert_eq!(codes(&r), vec![Code::Mv009]);
    }

    #[test]
    fn mv010_dead_write_in_strict_mode_only() {
        let src = "li r10, 5\nhalt\n";
        assert!(verify_asm(src).is_clean());
        let config = VerifyConfig {
            strict: true,
            ..VerifyConfig::default()
        };
        let r = verify_source("t", src, &config).unwrap().1;
        assert_eq!(codes(&r), vec![Code::Mv010]);
    }

    #[test]
    fn mv010_exempts_input_loads() {
        let config = VerifyConfig {
            strict: true,
            ..VerifyConfig::default()
        };
        // Consuming a pbuf entry is a side effect even if the value is dead.
        let r = verify_source("t", "ld.in r10, 0(r1)\nhalt\n", &config)
            .unwrap()
            .1;
        assert!(r.is_clean(), "unexpected: {r}");
    }

    #[test]
    fn verify_allow_suppresses_at_instruction() {
        let r = verify_asm(
            "
            # verify:allow(MV005): deliberate for the escape-hatch test
            li r10, 6
            ld.local r11, 0(r10)
            halt
        ",
        );
        // The allow sits on the `li`, not the load: not suppressed.
        assert_eq!(codes(&r), vec![Code::Mv005]);

        let r = verify_asm(
            "
            li r10, 6
            # verify:allow(MV005): deliberate for the escape-hatch test
            ld.local r11, 0(r10)
            halt
        ",
        );
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn config_allow_suppresses_code_program_wide() {
        let mut config = VerifyConfig::default();
        config.allow.push(Code::Mv001);
        let r = verify_source("t", "jmp over\nli r10, 1\nover:\nhalt\n", &config)
            .unwrap()
            .1;
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn assemble_verified_rejects_dirty_accepts_clean() {
        let config = VerifyConfig::default();
        match assemble_verified("t", "add r10, r11, r0\nhalt\n", &config) {
            Err(VerifyError::Rejected(r)) => assert!(r.has(Code::Mv002)),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(assemble_verified("t", "li r10, 1\nhalt\n", &config).is_ok());
    }

    #[test]
    fn report_json_shape() {
        let r = verify_asm("add r10, r11, r0\nhalt\n");
        let json = r.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"code\": \"MV002\""));
        assert!(json.contains("\"line\": 1"));
        assert!(json.contains("\"severity\": \"error\""));
    }

    #[test]
    fn annotated_listing_carries_cfg_facts() {
        let (program, _) = verify_source(
            "t",
            "
            li r10, 0
        top:
            addi r10, r10, 1
            blt r10, r2, top
            halt
        ",
            &VerifyConfig::default(),
        )
        .unwrap();
        let listing = annotate(&program, &VerifyConfig::default());
        assert!(listing.contains("loop-header"));
        assert!(listing.contains("reconverges at pc"));
        assert!(listing.contains("block 0"));
    }

    #[test]
    fn code_parse_round_trip() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.name()), Some(c));
            assert!(!c.summary().is_empty());
        }
        assert_eq!(Code::parse("mv004"), Some(Code::Mv004));
        assert_eq!(Code::parse("MV999"), None);
    }

    #[test]
    fn directive_parsing() {
        let mut c = VerifyConfig::default();
        c.apply_source_directives(
            "# verify-config: local-bytes=64 input-bytes=1024 strict\nhalt\n",
        );
        assert_eq!(c.local_bytes, Some(64));
        assert_eq!(c.input_bytes, Some(1024));
        assert!(c.strict);
    }
}
