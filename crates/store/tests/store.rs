//! End-to-end coverage of the artifact store: byte-identical replay,
//! corruption quarantine, GC by generation, and TT spill merging.

use snet_core::element::Element;
use snet_core::ir::CanonicalHash;
use snet_core::network::ComparatorNetwork;
use snet_core::verdict::{verdict_zero_one_exhaustive, Verdict, VerdictKind};
use snet_store::{load_tt_facts, save_tt_facts, ArtifactStore, TtFacts, KIND_VERDICT};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, unique store root under the system temp dir.
fn scratch_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "snet-store-it-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An odd-even transposition sort on `n` wires — a genuine sorter.
fn sorter(n: usize) -> ComparatorNetwork {
    let mut net = ComparatorNetwork::empty(n);
    for round in 0..n {
        let start = round % 2;
        let elems: Vec<Element> =
            (start..n - 1).step_by(2).map(|i| Element::cmp(i as u32, i as u32 + 1)).collect();
        if !elems.is_empty() {
            net.push_elements(elems).unwrap();
        }
    }
    net
}

/// A network that misses comparisons — guaranteed counterexamples.
fn non_sorter(n: usize) -> ComparatorNetwork {
    let mut net = ComparatorNetwork::empty(n);
    net.push_elements(vec![Element::cmp(0, 1)]).unwrap();
    net
}

#[test]
fn verdict_roundtrip_is_byte_identical() {
    let store = ArtifactStore::open(scratch_root("roundtrip")).unwrap();
    let verdict = verdict_zero_one_exhaustive(&sorter(5));
    assert!(verdict.is_sorting());

    let cold_bytes = verdict.to_json().into_bytes();
    assert!(store.get_verdict(&verdict.hash).is_none(), "cold store misses");
    store.put_verdict(&verdict).unwrap();

    let (replayed, stored_bytes) = store.get_verdict(&verdict.hash).expect("warm store hits");
    assert_eq!(stored_bytes, cold_bytes, "hit hands back the exact cold bytes");
    assert_eq!(replayed, verdict);
}

#[test]
fn cache_hit_replays_identical_lowest_index_counterexample() {
    // The satellite contract: a warm cache hit must replay the *same*
    // lowest-index counterexample a cold run finds, byte for byte.
    let store = ArtifactStore::open(scratch_root("lowest-cx")).unwrap();
    let net = non_sorter(6);

    let cold = verdict_zero_one_exhaustive(&net);
    let cold_index = match &cold.kind {
        VerdictKind::Counterexample { index, .. } => *index,
        other => panic!("expected a counterexample, got {other:?}"),
    };
    store.put_verdict(&cold).unwrap();

    // A later process recomputes the hash from the network alone and hits.
    let hash = CanonicalHash::of_network(&net);
    let (warm, warm_bytes) = store.get_verdict(&hash).expect("warm hit");
    let warm_index = match &warm.kind {
        VerdictKind::Counterexample { index, input, output } => {
            // The replayed witness still refutes the network.
            assert_eq!(&net.evaluate(input), output);
            *index
        }
        other => panic!("expected a counterexample, got {other:?}"),
    };
    assert_eq!(warm_index, cold_index);
    assert_eq!(warm_bytes, cold.to_json().into_bytes());

    // And an independent cold recomputation agrees with the cached bytes
    // (the lowest-index scan is deterministic).
    let recomputed = verdict_zero_one_exhaustive(&net);
    assert_eq!(recomputed.to_json().into_bytes(), warm_bytes);
}

#[test]
fn corrupt_entries_are_quarantined_not_fatal() {
    let root = scratch_root("corrupt");
    let store = ArtifactStore::open(&root).unwrap();
    let verdict = verdict_zero_one_exhaustive(&sorter(4));
    let path = store.put_verdict(&verdict).unwrap();

    // Flip a payload byte on disk: checksum must catch it.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    assert!(store.get(&verdict.hash).is_none(), "corrupt entry reads as a miss");
    assert!(!path.exists(), "corrupt entry is moved aside");
    assert_eq!(store.stat().unwrap().quarantined, 1);

    // The slot is reusable: a fresh put works and hits again.
    store.put_verdict(&verdict).unwrap();
    let (_, stored) = store.get_verdict(&verdict.hash).expect("hits after rewrite");
    assert_eq!(stored, verdict.to_json().into_bytes());

    // Garbage that was never a valid entry is also just a miss.
    std::fs::write(&path, b"{\"schema\":\"nonsense\"}\nxx").unwrap();
    assert!(store.get(&verdict.hash).is_none());
    assert!(store.get(&verdict.hash).is_none(), "still a miss after quarantine");
}

#[test]
fn temp_files_and_strangers_are_not_entries() {
    let root = scratch_root("strays");
    let store = ArtifactStore::open(&root).unwrap();
    let verdict = verdict_zero_one_exhaustive(&sorter(4));
    store.put_verdict(&verdict).unwrap();

    // Simulate a crashed writer and an unrelated file in a shard dir.
    let shard = root.join("objects").join(&verdict.hash.to_hex()[..2]);
    std::fs::write(shard.join(".tmp-999-crashed"), b"partial").unwrap();
    std::fs::write(shard.join("notes.txt"), b"hello").unwrap();

    let listed = store.ls().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].hash, verdict.hash);
    assert_eq!(listed[0].kind, KIND_VERDICT);
}

#[test]
fn ls_screens_each_header_against_the_file_size() {
    let root = scratch_root("ls-screen");
    let store = ArtifactStore::open(&root).unwrap();
    let [whole, short, headless] =
        ["whole", "short", "headless"].map(|l| CanonicalHash::of_label(&format!("ls-{l}")));
    let whole_path = store.put(&whole, "blob", &[7u8; 4096]).unwrap();
    let short_path = store.put(&short, "blob", &[8u8; 64]).unwrap();
    let headless_path = store.put(&headless, "blob", b"x").unwrap();

    // One payload byte lost; a header line with no end.
    let bytes = std::fs::read(&short_path).unwrap();
    std::fs::write(&short_path, &bytes[..bytes.len() - 1]).unwrap();
    let bytes = std::fs::read(&headless_path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    std::fs::write(&headless_path, &bytes[..nl]).unwrap();

    let listed = store.ls().unwrap();
    assert_eq!(listed.len(), 1, "only the intact entry lists");
    assert_eq!(listed[0].hash, whole);
    assert_eq!(listed[0].bytes, std::fs::metadata(&whole_path).unwrap().len());
    assert!(!short_path.exists() && !headless_path.exists(), "damaged entries are moved aside");
    assert_eq!(store.stat().unwrap().quarantined, 2);
}

#[test]
fn gc_evicts_oldest_generations_first() {
    let root = scratch_root("gc");
    let hashes: Vec<CanonicalHash> =
        (0..4u32).map(|i| CanonicalHash::of_label(&format!("gc-entry-{i}"))).collect();

    // Two entries in generation 1, two in generation 2.
    let gen1 = ArtifactStore::open(&root).unwrap();
    assert_eq!(gen1.generation(), 1);
    gen1.put(&hashes[0], "blob", &[0u8; 256]).unwrap();
    gen1.put(&hashes[1], "blob", &[1u8; 256]).unwrap();
    let gen2 = ArtifactStore::open(&root).unwrap();
    assert_eq!(gen2.generation(), 2, "each open bumps the generation");
    gen2.put(&hashes[2], "blob", &[2u8; 256]).unwrap();
    gen2.put(&hashes[3], "blob", &[3u8; 256]).unwrap();

    let total = gen2.stat().unwrap().bytes;
    let report = gen2.gc(total / 2).unwrap();
    assert_eq!(report.scanned, 4);
    assert_eq!(report.removed, 2, "half the budget evicts half the entries");
    assert!(report.remaining_bytes <= total / 2);

    // The generation-1 entries went first; generation 2 survives.
    assert!(gen2.get(&hashes[0]).is_none());
    assert!(gen2.get(&hashes[1]).is_none());
    assert!(gen2.get(&hashes[2]).is_some());
    assert!(gen2.get(&hashes[3]).is_some());

    // A budget large enough for everything removes nothing.
    assert_eq!(gen2.gc(u64::MAX).unwrap().removed, 0);
}

#[test]
fn corrupt_meta_restarts_generations_without_failing() {
    let root = scratch_root("meta");
    let first = ArtifactStore::open(&root).unwrap();
    assert_eq!(first.generation(), 1);
    // Unparsable, and a generation the bump would overflow.
    let metas: [&[u8]; 2] = [
        b"]]]not json",
        b"{\"schema\":\"snet-store-meta/1\",\"generation\":18446744073709551615}\n",
    ];
    for (parked, meta) in metas.into_iter().enumerate() {
        std::fs::write(root.join("store.meta.json"), meta).unwrap();
        let recovered = ArtifactStore::open(&root).unwrap();
        assert_eq!(recovered.generation(), 1, "corrupt meta restarts the counter");
        assert!(recovered.stat().unwrap().quarantined > parked as u64, "bad meta is parked");
    }
}

#[test]
fn tt_spills_merge_across_runs() {
    let store = ArtifactStore::open(scratch_root("tt")).unwrap();
    let label = "search/n=7/depth=6";
    assert!(load_tt_facts(&store, label).is_none(), "no spill yet");

    let run1 = TtFacts::from_pairs(vec![(vec![1, 0], 3), (vec![2, 0], 1)]);
    assert_eq!(save_tt_facts(&store, label, &run1, 1024).unwrap(), 2);

    // A second run learns a deeper fact for one key and a new key.
    let run2 = TtFacts::from_pairs(vec![(vec![1, 0], 5), (vec![7, 7], 2)]);
    assert_eq!(save_tt_facts(&store, label, &run2, 1024).unwrap(), 3);

    let merged = load_tt_facts(&store, label).expect("spill loads");
    assert_eq!(
        merged.facts(),
        &[(vec![1, 0], 5), (vec![2, 0], 1), (vec![7, 7], 2)],
        "merge keeps the deepest budget per key"
    );

    // Budget-capped save keeps the deepest facts.
    assert_eq!(save_tt_facts(&store, label, &TtFacts::default(), 2).unwrap(), 2);
    let capped = load_tt_facts(&store, label).unwrap();
    assert_eq!(capped.facts(), &[(vec![1, 0], 5), (vec![7, 7], 2)]);

    // Different labels are fully independent entries.
    assert!(load_tt_facts(&store, "search/n=8/depth=6").is_none());
}

#[test]
fn verdict_parse_rejects_tampered_schema() {
    let verdict = verdict_zero_one_exhaustive(&sorter(4));
    let json = verdict.to_json();
    let tampered = json.replace("snet-verdict/1", "snet-verdict/999");
    assert!(Verdict::parse(&tampered).is_err());
}
