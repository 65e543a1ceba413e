//! Golden digests: every registry scenario, run in process with the
//! `campaign run <scenario>` defaults (quick scale, master seed 2020, four
//! shards), must produce exactly these stream digests. The digest does
//! not depend on the shard count or the execution mode (see
//! `determinism.rs`), so this pins what every mode produces. A change to
//! a digest is a change to the reproduction's output.

use campaign::exec::{run_campaign, CampaignConfig};
use campaign::registry;
use timeshift::experiments::Scale;

/// `(scenario, digest)`. fig6, fig7 and table4_snoop share one snoop
/// survey, hence one stream.
const GOLDEN: [(&str, &str); 11] = [
    ("table1", "07bc8e0c7ab789b9"),
    ("table2", "30af30c75d7c41fb"),
    ("fig5", "395f98cbaf5e45d4"),
    ("fig6", "5b146221803ea97b"),
    ("fig7", "5b146221803ea97b"),
    ("table4_snoop", "5b146221803ea97b"),
    ("table5_adstudy", "231a26359cebfe14"),
    ("ratelimit", "837b0046ea00db3e"),
    ("pmtud", "d57c7c75648a3689"),
    ("shared", "d9cdaebe125bf342"),
    ("chronos_bound", "04f9eff29b5fd8b5"),
];

#[test]
fn every_scenario_streams_its_golden_digest() {
    assert_eq!(GOLDEN.len(), registry::all().len(), "every scenario has a golden digest");
    let mut mismatches = Vec::new();
    for (name, golden) in GOLDEN {
        let scenario = registry::find(name).expect("registered");
        let dir =
            std::env::temp_dir().join(format!("campaign-golden-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = CampaignConfig::in_process(scenario, Scale::quick(), 4, dir.clone());
        let summary = run_campaign(&config).expect("campaign runs");
        std::fs::remove_dir_all(dir).ok();
        if summary.digest != golden {
            mismatches.push(format!("{name}: {} (golden {golden})", summary.digest));
        }
    }
    assert!(mismatches.is_empty(), "digests changed: {mismatches:#?}");
}
