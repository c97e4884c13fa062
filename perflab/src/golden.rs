//! Pinned guest outcomes: `golden.json` holds, per workload, the exact
//! guest facts of the default seed and of one held-out seed. A rep that
//! disagrees with its pin is a failed operation. Seeds without a pin fall
//! back to rep-to-rep and serial==parallel identity.

use crate::run::Guest;
use crate::workloads::Workload;
use smtp::core::json::{self, JsonValue};
use std::fmt::Write as _;

const GOLDEN_JSON: &str = include_str!("../golden.json");

/// Where `regolden` rewrites the pins (the source tree this binary was
/// built from).
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

/// Seed of `all`/`traced` when none is given, and the first pinned seed.
pub const DEFAULT_SEED: u64 = 42;
/// Second pinned seed, not used while writing changes.
pub const HELD_OUT_SEED: u64 = 1337;

/// One pin. `seed` is `None` for a seedless workload, whose guest outcome
/// is the same for every seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    pub workload: String,
    pub seed: Option<u64>,
    pub guest: Guest,
}

/// Parse a golden document.
pub fn parse(text: &str) -> Result<Vec<Pin>, String> {
    let doc = json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
    let num = |p: &JsonValue, k: &str| {
        p.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("golden.json: pin without integer {k:?}"))
    };
    doc.get("pins")
        .and_then(JsonValue::as_arr)
        .ok_or("golden.json: no pins array")?
        .iter()
        .map(|p| {
            let digest = p
                .get("digest")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("golden.json: pin without hex digest")?;
            Ok(Pin {
                workload: p
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .ok_or("golden.json: pin without workload")?
                    .to_string(),
                seed: p.get("seed").and_then(JsonValue::as_u64),
                guest: Guest {
                    cycles: num(p, "guest_cycles")?,
                    app_insts: num(p, "app_insts")?,
                    protocol_insts: num(p, "protocol_insts")?,
                    handlers: num(p, "handlers")?,
                    messages: num(p, "messages")?,
                    digest,
                },
            })
        })
        .collect()
}

/// The pins this binary was built with.
pub fn embedded() -> Result<Vec<Pin>, String> {
    parse(GOLDEN_JSON)
}

/// The pin that applies to `w` at `seed`, if any.
pub fn lookup<'a>(pins: &'a [Pin], w: &Workload, seed: u64) -> Option<&'a Guest> {
    pins.iter()
        .find(|p| p.workload == w.name && (!w.seeded || p.seed == Some(seed)))
        .map(|p| &p.guest)
}

/// Render pins as the `golden.json` document.
pub fn render(pins: &[Pin]) -> String {
    let mut out = String::from("{\"pins\":[\n");
    for (i, p) in pins.iter().enumerate() {
        let seed = p.seed.map_or("null".to_string(), |s| s.to_string());
        let g = &p.guest;
        let _ = write!(
            out,
            "  {{\"workload\":\"{}\",\"seed\":{seed},\"guest_cycles\":{},\"app_insts\":{},\
             \"protocol_insts\":{},\"handlers\":{},\"messages\":{},\"digest\":\"{:016x}\"}}",
            p.workload, g.cycles, g.app_insts, g.protocol_insts, g.handlers, g.messages, g.digest
        );
        out.push_str(if i + 1 < pins.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}
