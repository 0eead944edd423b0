//! The storage corruption suite: journals, snapshots and fitness-memo
//! spill files fed truncated, bit-flipped, and duplicated input must
//! never panic, never replay damaged records as good ones, and must
//! count the damage they skip.
//!
//! The journal under test carries the full record zoo — a keyed batch
//! (`[submitted]` × 2 + `[idempotency]`), a `[finished]` terminal
//! record, and a second batch — so every parser path faces the damage.

use digamma::{CoOptProblem, Objective};
use digamma_costmodel::{LayerCost, Platform};
use digamma_encoding::Genome;
use digamma_server::cachefile::{parse_cache_file, render_cache_file};
use digamma_server::{JobAlgorithm, JobSpec, JobStatus, Journal, Snapshot};
use digamma_workload::zoo;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn spec(name: &str, budget: usize) -> JobSpec {
    let mut s =
        JobSpec::new(name, zoo::ncf(), Platform::edge(), Objective::Latency, JobAlgorithm::DiGamma);
    s.budget = budget;
    s
}

/// Renders the reference journal into `path`: keyed batch (ids 1, 2),
/// job 1 finished, then an unkeyed id 3.
fn write_reference_journal(path: &std::path::Path) {
    let journal = Journal::new(path);
    let (alpha, beta) = (spec("alpha", 100), spec("beta", 200));
    journal.append_submitted(&[(1, &alpha), (2, &beta)], Some(("acme", "k-chaos"))).unwrap();
    journal.append_finished(1, JobStatus::Done).unwrap();
    journal.append_submitted(&[(3, &spec("gamma", 300))], None).unwrap();
}

/// A reference snapshot with a real population, rendered to text.
fn reference_snapshot() -> String {
    let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
    let mut rng = SmallRng::seed_from_u64(42);
    let population: Vec<Genome> = (0..4)
        .map(|_| Genome::random(&mut rng, problem.unique_layers(), problem.platform(), 2))
        .collect();
    let history: Vec<f64> = (0..32).map(|i| 1e6 / (i + 1) as f64).collect();
    Snapshot {
        fingerprint: "job 1 ncf edge latency".to_owned(),
        generation: 7,
        samples: history.len(),
        history,
        best: Some(population[0].clone()),
        population,
        ops: digamma_obs::OpCounters::new(),
        last_improved_gen: 7,
        cost_points: Vec::new(),
    }
    .render()
}

/// A reference spill: the per-layer costs of two random ncf genomes, one
/// on a 2-level array and one on a 3-level array (middle buffers).
fn reference_spill() -> (Vec<(u64, LayerCost)>, String) {
    let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
    let eval = problem.evaluator();
    let mut rng = SmallRng::seed_from_u64(17);
    let mut entries = Vec::new();
    for levels in [2, 3] {
        let genome = Genome::random(&mut rng, problem.unique_layers(), problem.platform(), levels);
        for (u, m) in problem.unique_layers().iter().zip(genome.decode(problem.unique_layers())) {
            entries.push((eval.cache_key(&u.layer, &m), eval.layer_cost(&u.layer, &m).unwrap()));
        }
    }
    let text = render_cache_file(&entries);
    (entries, text)
}

/// The spill-file contract on a damaged document: parsing returns
/// rather than panics, no more entries are accounted for than were
/// written, and every entry that loads is bit-equal to a written one
/// under the same key.
fn check_spill_load(written: &[(u64, LayerCost)], damaged: &str) {
    let Ok((loaded, load)) = parse_cache_file(damaged) else { return };
    prop_assert_eq!(loaded.len(), load.loaded);
    prop_assert!(load.loaded + load.skipped <= written.len(), "{:?}", load);
    for (key, cost) in &loaded {
        let Some((_, original)) = written.iter().find(|(k, _)| k == key) else {
            panic!("loaded an invented key {key:016x}");
        };
        prop_assert_eq!(cost.latency_cycles.to_bits(), original.latency_cycles.to_bits());
        prop_assert_eq!(cost.energy_pj.to_bits(), original.energy_pj.to_bits());
        prop_assert_eq!(cost.buffers, original.buffers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A spill file truncated at an arbitrary byte: every surviving
    /// entry is intact, and a cut inside an entry (a shortened number
    /// still parses) never loads a wrong cost.
    #[test]
    fn truncated_spill_files_load_only_written_entries(cut_seed in 0u64..4_096) {
        let (written, text) = reference_spill();
        let cut = (cut_seed as usize) % (text.len() + 1);
        check_spill_load(&written, &text[..cut]);
    }

    /// A single low-bit flip anywhere in a spill file: never a panic,
    /// never a loaded cost that differs from what was written.
    #[test]
    fn bit_flipped_spill_files_load_only_written_entries(flip_seed in 0u64..4_096) {
        let (written, text) = reference_spill();
        let mut bytes = text.into_bytes();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..4);
        let Ok(text) = String::from_utf8(bytes) else { return };
        check_spill_load(&written, &text);
    }

    /// A journal truncated at an arbitrary byte replays without panic
    /// to a *prefix-consistent* state: records strictly before the cut
    /// survive intact, everything at or after it vanishes, and at most
    /// the one torn record is convicted as corrupt. In particular a
    /// torn keyed append may keep a prefix of its `[submitted]` records
    /// but always drops the trailing `[idempotency]` key with the tear.
    #[test]
    fn truncated_journals_replay_to_a_consistent_prefix(cut_seed in 0u64..4_096) {
        let dir = std::env::temp_dir()
            .join(format!("digamma-corrupt-trunc-{}-{cut_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let full_path = dir.join("full.journal");
        write_reference_journal(&full_path);
        let bytes = std::fs::read(&full_path).unwrap();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        let torn_path = dir.join("torn.journal");
        std::fs::write(&torn_path, &bytes[..cut]).unwrap();

        let replay = Journal::new(&torn_path).replay().expect("truncation is never an I/O error");
        let has = |id| replay.pending.iter().any(|(i, _)| *i == id);
        let fin1 = replay.finished.iter().any(|&(i, s)| i == 1 && s == JobStatus::Done);
        let keyed = !replay.idempotency.is_empty();
        // The reachable states, in tail-growth order:
        // nothing → {1} → {1,2} → {1,2}+key → key+finished(1) → +{3}.
        let state = (has(1), has(2), has(3), fin1, keyed);
        let allowed = [
            (false, false, false, false, false),
            (true, false, false, false, false),
            (true, true, false, false, false),
            (true, true, false, false, true),
            (false, true, false, true, true),
            (false, true, true, true, true),
        ];
        prop_assert!(allowed.contains(&state), "cut {cut}: unreachable state {state:?}");
        prop_assert!(replay.corrupt <= 1, "cut {cut}: one tear, {} convictions", replay.corrupt);
        if keyed {
            prop_assert_eq!(
                replay.idempotency.clone(),
                vec![("acme".to_owned(), "k-chaos".to_owned(), vec![1, 2])]
            );
        }
        // Surviving records are the originals, not reinterpretations.
        for (id, spec) in &replay.pending {
            let wanted = match id {
                1 => ("alpha", 100),
                2 => ("beta", 200),
                3 => ("gamma", 300),
                other => panic!("invented job id {other}"),
            };
            prop_assert_eq!((spec.name.as_str(), spec.budget), wanted);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single flipped byte anywhere in the journal never panics the
    /// replayer, never changes a surviving record (the per-record crc
    /// convicts any content flip), and any deviation from the pristine
    /// state is matched by a nonzero corrupt count.
    #[test]
    fn bit_flipped_journals_never_replay_damaged_records(flip_seed in 0u64..4_096) {
        let dir = std::env::temp_dir()
            .join(format!("digamma-corrupt-flip-{}-{flip_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.journal");
        write_reference_journal(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0..bytes.len());
        // Flip a low bit: the damage stays ASCII, so the failure mode
        // under test is record corruption, not UTF-8 decoding.
        bytes[at] ^= 1u8 << rng.gen_range(0..4);
        std::fs::write(&path, &bytes).unwrap();

        // Structural damage (a mangled section header) may surface as a
        // parse error; that is acceptable — a panic or a silently
        // altered record is not.
        let Ok(replay) = Journal::new(&path).replay() else {
            std::fs::remove_dir_all(&dir).ok();
            return;
        };
        for (id, spec) in &replay.pending {
            let wanted = match id {
                1 => ("alpha", 100),
                2 => ("beta", 200),
                3 => ("gamma", 300),
                other => panic!("invented job id {other}"),
            };
            prop_assert_eq!(
                (spec.name.as_str(), spec.budget),
                wanted,
                "flip at {} replayed an altered record",
                at
            );
        }
        let pristine = replay.pending.iter().map(|(i, _)| *i).collect::<Vec<_>>() == vec![2, 3]
            && replay.finished.iter().any(|&(i, s)| i == 1 && s == JobStatus::Done)
            && replay.idempotency.len() == 1;
        if !pristine {
            prop_assert!(
                replay.corrupt >= 1,
                "flip at {at} changed the replayed state without a corruption conviction"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot parsing under truncation: never a panic, and any
    /// successfully parsed document satisfies the internal-consistency
    /// invariants the resume path relies on.
    #[test]
    fn truncated_snapshots_parse_or_reject_but_never_panic(cut_seed in 0u64..4_096) {
        let text = reference_snapshot();
        let cut = (cut_seed as usize) % (text.len() + 1);
        // Cut on a char boundary (the text is ASCII, but stay honest).
        let mut cut = cut;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        if let Ok(snapshot) = Snapshot::parse(&text[..cut]) {
            prop_assert_eq!(snapshot.history.len(), snapshot.samples);
            // A truncated prefix that still parses must be the complete
            // document: the declared population and sample counts
            // convict every shorter prefix.
            prop_assert_eq!(snapshot.population.len(), 4);
        }
    }

    /// Snapshot parsing under single-byte flips: never a panic; parsed
    /// documents keep their declared-vs-carried invariants.
    #[test]
    fn bit_flipped_snapshots_parse_or_reject_but_never_panic(flip_seed in 0u64..4_096) {
        let text = reference_snapshot();
        let mut bytes = text.into_bytes();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..4);
        let Ok(text) = String::from_utf8(bytes) else { return };
        if let Ok(snapshot) = Snapshot::parse(&text) {
            prop_assert_eq!(snapshot.history.len(), snapshot.samples);
            prop_assert_eq!(snapshot.population.len(), 4);
        }
    }
}

/// Whole-record duplication (a double-applied append, the classic
/// retry-without-idempotency bug at the storage layer) must replay each
/// id once, keeping the journal's last-writer-wins semantics.
#[test]
fn duplicated_journal_records_replay_once_per_id() {
    let dir = std::env::temp_dir().join(format!("digamma-corrupt-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dup.journal");
    write_reference_journal(&path);
    // Re-append the whole journal body after its header: every record
    // now appears twice.
    let text = std::fs::read_to_string(&path).unwrap();
    let body = text.split_once("\n\n").map(|(_, rest)| rest.to_owned()).unwrap_or_default();
    std::fs::write(&path, format!("{text}{body}")).unwrap();

    let replay = Journal::new(&path).replay().expect("duplication is not an I/O error");
    let ids: Vec<u64> = replay.pending.iter().map(|(i, _)| *i).collect();
    assert_eq!(ids, vec![2, 3], "each id replays exactly once: {ids:?}");
    assert_eq!(replay.corrupt, 0, "duplicates are valid records, not corruption");
    assert_eq!(replay.next_id, 4);
    std::fs::remove_dir_all(&dir).ok();
}
