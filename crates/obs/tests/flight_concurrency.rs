//! Flight-recorder concurrency: 8 threads hammering the emit path must
//! never interleave partial lines — each thread owns its ring, so every
//! surviving line is intact and attributable.

use snet_obs::report::parse_event_line;

#[test]
fn eight_concurrent_writers_never_interleave_partial_lines() {
    const THREADS: u64 = 8;
    const EVENTS_PER_THREAD: usize = 500;

    snet_obs::enable_flight();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for _ in 0..EVENTS_PER_THREAD {
                    // The value encodes the writer; a torn or interleaved
                    // line would fail to parse or miscount below.
                    snet_obs::counter("flight.writer", t + 1);
                }
            });
        }
    });
    snet_obs::disable_flight();

    let mut per_writer = vec![0usize; THREADS as usize + 1];
    for (_, text) in snet_obs::flight_snapshot() {
        for line in text.lines() {
            let ev = parse_event_line(line)
                .unwrap_or_else(|| panic!("partial or torn line in quiescent ring: {line:?}"));
            if ev.name == "flight.writer" {
                let writer = ev.value as usize;
                assert!(
                    (1..=THREADS as usize).contains(&writer),
                    "interleaved bytes produced a bogus writer id in {line:?}"
                );
                per_writer[writer] += 1;
            }
        }
    }
    for (writer, &count) in per_writer.iter().enumerate().skip(1) {
        assert_eq!(
            count, EVENTS_PER_THREAD,
            "writer {writer}: ring dropped or corrupted events while under capacity"
        );
    }
}
