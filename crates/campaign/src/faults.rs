//! Deterministic fault injection for the supervision chaos harness.
//!
//! A [`FaultSpec`] is carried to a `campaign worker` subprocess as a CLI
//! flag (`--fault crash-after=2`), so every injected failure is a pure
//! function of the worker's arguments — no wall-clock randomness, no
//! signal races, no "kill it and hope the timing lands". That is what
//! lets the chaos matrix in `crates/campaign/tests/chaos.rs` assert, for
//! every fault × retry combination, that the supervised run's merged
//! digest is **bit-identical** to the fault-free run.
//!
//! The counters are relative to the records *this worker invocation*
//! writes (after `--skip`), so a fault re-injected on a retry fires at a
//! well-defined point of the resumed stream too.
//!
//! | spec               | behaviour                                                       |
//! |--------------------|-----------------------------------------------------------------|
//! | `crash-after=K`    | write K records, then exit with code 101                        |
//! | `stall-after=K`    | write K records, then sleep forever (the stall-timeout target)  |
//! | `torn-write[=K]`   | write K records, append a torn half-line, exit 103              |
//! | `garbage-record[=K]`| write K records, append one schema-invalid line, keep going    |
//! | `exit=N`           | exit immediately with code N, before any record                 |

use crate::error::CampaignError;

/// One injectable worker fault. See the module table for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Exit(101) after this many records.
    CrashAfter(usize),
    /// Stop making progress (sleep forever) after this many records.
    StallAfter(usize),
    /// Append a torn (newline-less) half-record after this many records,
    /// then exit(103) — exactly the file state a mid-write kill leaves.
    TornWrite(usize),
    /// Append one complete but schema-invalid line to the checkpoint
    /// after this many records, then continue normally — the case for
    /// the supervisor's corrupt-record detector and for mid-file
    /// quarantine.
    GarbageRecord(usize),
    /// Exit with this code before writing anything.
    Exit(i32),
}

/// The half-line a `torn-write` fault appends (no terminating newline).
pub const TORN_BYTES: &[u8] = b"{\"torn\":";

/// The schema-invalid line a `garbage-record` fault appends.
pub const GARBAGE_LINE: &str = "{\"fault\":\"garbage-record\"}";

impl FaultSpec {
    /// Parses the `--fault` wire form (see the module table). `torn-write`
    /// and `garbage-record` default `K` to 1 when given bare.
    ///
    /// # Errors
    ///
    /// [`CampaignError::BadSpec`] on anything unrecognised.
    pub fn parse(spec: &str) -> Result<FaultSpec, CampaignError> {
        let bad = || CampaignError::BadSpec(format!("bad fault spec {spec:?}"));
        let (name, value) = match spec.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (spec, None),
        };
        let count = |default: usize| -> Result<usize, CampaignError> {
            match value {
                None => Ok(default),
                Some(v) => v.parse().map_err(|_| bad()),
            }
        };
        match name {
            "crash-after" => Ok(FaultSpec::CrashAfter(count(0)?)),
            "stall-after" => Ok(FaultSpec::StallAfter(count(0)?)),
            "torn-write" => Ok(FaultSpec::TornWrite(count(1)?)),
            "garbage-record" => Ok(FaultSpec::GarbageRecord(count(1)?)),
            "exit" => {
                let v = value.ok_or_else(bad)?;
                let code: i32 = v.parse().map_err(|_| bad())?;
                if code == 0 {
                    // exit=0 would be indistinguishable from success with
                    // a short checkpoint — reject it rather than inject a
                    // fault the supervisor classifies differently.
                    return Err(bad());
                }
                Ok(FaultSpec::Exit(code))
            }
            _ => Err(bad()),
        }
    }

    /// Renders the spec back to its `--fault` wire form
    /// (`parse(render(s)) == s`).
    pub fn render(&self) -> String {
        match self {
            FaultSpec::CrashAfter(k) => format!("crash-after={k}"),
            FaultSpec::StallAfter(k) => format!("stall-after={k}"),
            FaultSpec::TornWrite(k) => format!("torn-write={k}"),
            FaultSpec::GarbageRecord(k) => format!("garbage-record={k}"),
            FaultSpec::Exit(n) => format!("exit={n}"),
        }
    }
}

/// One shard's planned fault: inject `fault` on the shard's first
/// `times` worker spawns (attempts `0..times`), run clean afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// Target shard.
    pub shard: usize,
    /// What to inject.
    pub fault: FaultSpec,
    /// How many consecutive attempts get the fault. With `times` ≤
    /// `max_retries` the shard heals; with `times` > `max_retries` it is
    /// quarantined — both ends of the chaos matrix.
    pub times: usize,
}

/// The coordinator-side fault plan: which shards get which faults, for
/// how many attempts. Empty by default (production supervision).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned injections (at most one per shard is honoured; the
    /// first match wins).
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// A plan with no injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses one coordinator CLI entry: `<shard>:<spec>` or
    /// `<shard>:<spec>:x<times>` (e.g. `1:crash-after=2:x2`), appending
    /// it to the plan.
    ///
    /// # Errors
    ///
    /// [`CampaignError::BadSpec`] on malformed input.
    pub fn push_cli(&mut self, entry: &str) -> Result<(), CampaignError> {
        let bad =
            || CampaignError::BadSpec(format!("bad --fault {entry:?} (want shard:spec[:xN])"));
        let (shard, rest) = entry.split_once(':').ok_or_else(bad)?;
        let shard: usize = shard.parse().map_err(|_| bad())?;
        let (spec, times) = match rest.rsplit_once(":x") {
            Some((spec, times)) => (spec, times.parse().map_err(|_| bad())?),
            None => (rest, 1),
        };
        if times == 0 {
            return Err(bad());
        }
        self.entries.push(FaultEntry { shard, fault: FaultSpec::parse(spec)?, times });
        Ok(())
    }

    /// The fault to inject when spawning `shard`'s worker for (0-based)
    /// `attempt`, if any.
    pub fn fault_for(&self, shard: usize, attempt: usize) -> Option<FaultSpec> {
        self.entries
            .iter()
            .find(|e| e.shard == shard)
            .filter(|e| attempt < e.times)
            .map(|e| e.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_the_wire_form() {
        for spec in [
            FaultSpec::CrashAfter(0),
            FaultSpec::CrashAfter(7),
            FaultSpec::StallAfter(2),
            FaultSpec::TornWrite(3),
            FaultSpec::GarbageRecord(1),
            FaultSpec::Exit(42),
            FaultSpec::Exit(-1),
        ] {
            assert_eq!(FaultSpec::parse(&spec.render()).expect("parses"), spec);
        }
    }

    #[test]
    fn bare_forms_default_sensibly() {
        assert_eq!(FaultSpec::parse("torn-write").expect("parses"), FaultSpec::TornWrite(1));
        assert_eq!(
            FaultSpec::parse("garbage-record").expect("parses"),
            FaultSpec::GarbageRecord(1)
        );
        assert_eq!(FaultSpec::parse("crash-after").expect("parses"), FaultSpec::CrashAfter(0));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["", "crash-after=x", "exit", "exit=0", "exit=zero", "meteor-strike"] {
            assert!(FaultSpec::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn plan_cli_entries_parse_and_select() {
        let mut plan = FaultPlan::none();
        plan.push_cli("1:crash-after=2").expect("parses");
        plan.push_cli("3:stall-after=0:x2").expect("parses");
        assert_eq!(plan.fault_for(1, 0), Some(FaultSpec::CrashAfter(2)));
        assert_eq!(plan.fault_for(1, 1), None, "single-shot fault clears after one attempt");
        assert_eq!(plan.fault_for(3, 1), Some(FaultSpec::StallAfter(0)));
        assert_eq!(plan.fault_for(3, 2), None);
        assert_eq!(plan.fault_for(0, 0), None);
        for bad in ["crash-after=1", "x:crash-after=1", "1:crash-after=1:x0", "1:nope"] {
            assert!(FaultPlan::none().push_cli(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn garbage_line_is_complete_but_schema_invalid() {
        use crate::record::{decode_line, Field, FieldKind};
        const SCHEMA: &crate::record::Schema = &[Field { name: "x", kind: FieldKind::U64 }];
        assert!(decode_line(SCHEMA, GARBAGE_LINE).is_err());
        assert!(!GARBAGE_LINE.contains('\n'));
    }
}
