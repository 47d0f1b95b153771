//! Machine-readable reports and annotated listings.
//!
//! The JSON emitter is hand-rolled on the workspace's one JSON helper
//! ([`millipede_metrics::json`]): the report shape is small and flat, so a
//! serialization dependency would buy nothing. The annotated listing interleaves CFG and analysis facts into
//! the disassembler's output so `millipede-cli verify --annotate` doubles as
//! a CFG viewer.

use crate::analysis::{regset_names, Analysis};
use crate::{Severity, VerifyReport};
use millipede_isa::{disassemble, Program};
use millipede_metrics::json::escape;
use std::fmt::Write as _;

impl VerifyReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"program\": \"{}\", \"instructions\": {}, \"blocks\": {}, \
             \"branches\": {}, \"loops\": {}, \"clean\": {}, \"errors\": {}, \
             \"warnings\": {}, \"suppressed\": {}, \"diagnostics\": [",
            escape(&self.program),
            self.instructions,
            self.blocks,
            self.branches,
            self.loops,
            self.is_clean(),
            self.errors(),
            self.warnings(),
            self.suppressed,
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let line = match d.line {
                Some(l) => l.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"code\": \"{}\", \"severity\": \"{}\", \"pc\": {}, \
                 \"line\": {}, \"message\": \"{}\"}}",
                d.code.name(),
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                d.pc,
                line,
                escape(&d.message),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Renders several reports as one JSON array (the `verify --kernels` and
/// fixture-corpus shapes consumed by ci.sh).
pub fn reports_to_json(reports: &[VerifyReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n ");
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

/// Produces the disassembly of `program` annotated with CFG structure and
/// verifier findings.
///
/// Block boundaries get a header comment carrying successor edges,
/// reachability, loop-header status, and the dataflow entry facts; branch
/// instructions get their reconvergence PC; diagnosed instructions get their
/// `MV0xx` message inline.
pub fn annotated_listing(program: &Program, analysis: &Analysis, report: &VerifyReport) -> String {
    let a = analysis;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# millipede-verify listing: {} ({} instrs, {} blocks, {} loops, {} branches)",
        report.program, report.instructions, report.blocks, report.loops, report.branches
    );
    let _ = writeln!(
        out,
        "# diagnostics: {} error(s), {} warning(s), {} suppressed",
        report.errors(),
        report.warnings(),
        report.suppressed
    );

    let mut pc: u32 = 0;
    for line in disassemble(program).lines() {
        let is_label = line.ends_with(':') && !line.trim_start().starts_with('#');
        if !is_label {
            // First instruction of a block: emit the block header.
            let b = a.cfg.block_of(pc);
            let block = &a.cfg.blocks()[b];
            if pc == block.start {
                let mut flags = String::new();
                if !a.reachable[b] {
                    flags.push_str(" UNREACHABLE");
                }
                if a.loops.iter().any(|l| l.header == b) {
                    flags.push_str(" loop-header");
                }
                if a.reachable[b] && !a.can_reach_exit[b] {
                    flags.push_str(" no-path-to-halt");
                }
                let _ = writeln!(
                    out,
                    "# -- block {b}: pc {}..{}, succs {:?}{flags}",
                    block.start, block.end, block.succs
                );
                if a.reachable[b] {
                    let _ = writeln!(
                        out,
                        "#    defined-in {}  divergent-in {}  live-in {}",
                        regset_names(a.defined_in[b]),
                        regset_names(a.divergent_in[b]),
                        regset_names(a.live_in[b]),
                    );
                }
            }
        }
        out.push_str(line);
        if !is_label {
            if program.fetch(pc).is_branch() && a.reachable[a.cfg.block_of(pc)] {
                match a.reconv.reconvergence_pc(pc) {
                    Some(r) => {
                        let _ = write!(out, "  # pc {pc}: reconverges at pc {r}");
                    }
                    None => {
                        let _ = write!(out, "  # pc {pc}: reconverges only at exit");
                    }
                }
                if a.divergent_branches.contains(&pc) {
                    out.push_str(" [divergent]");
                }
            }
            for d in report.diagnostics.iter().filter(|d| d.pc == pc) {
                let _ = write!(out, "  # {}: {}", d.code.name(), d.message);
            }
            pc += 1;
        }
        out.push('\n');
    }
    out
}
