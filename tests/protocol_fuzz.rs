//! Seeded byte-level fuzzing of the daemon's wire protocol.  Every byte a
//! client sends goes through `FrameDecoder` and `Request::parse` before any
//! command runs, so those two must survive any input.
//!
//! Each case starts from valid request lines (one of every `Request` kind),
//! mutates them — bit flips, truncations, splices, duplicated and oversize
//! lines, bracket runs, NUL bytes, invalid UTF-8, stray line breaks — and
//! feeds the resulting byte stream to a decoder in random chunks.  Checked:
//!
//! * nothing panics;
//! * the frames do not depend on the chunking: each newline-terminated line
//!   is one `Frame::Line` (lossy UTF-8, trimmed) or, past the cap, one
//!   `Frame::Oversize` carrying its length;
//! * each line parses to a `Request` or a `ProtoError`, never anything else;
//! * the decoder never buffers more than the cap plus one chunk.
//!
//! A failing stream is saved under `tests/regressions/protocol/`, and every
//! saved stream is replayed before novel cases are generated.  Case count:
//! `SUIF_PROTOCOL_CASES` (default 1000), all from one fixed seed.

use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use suif_server::proto::{Frame, FrameDecoder, Request, MAX_LINE_BYTES};

const SEED: u64 = 0x5eed_f4a3_0001;

fn regression_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions/protocol")
}

fn case_count() -> usize {
    match std::env::var("SUIF_PROTOCOL_CASES") {
        Ok(v) => v.parse().expect("SUIF_PROTOCOL_CASES must be a number"),
        Err(_) => 1000,
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One valid line for every `Request` kind.
fn valid_lines() -> Vec<String> {
    let program =
        r"program t\nproc main() {\n real a[4]\n int i\n do 1 i = 1, 4 {\n  a[i] = i\n }\n}";
    vec![
        format!(r#"{{"cmd":"load","text":"{program}"}}"#),
        format!(r#"{{"cmd":"reload","text":"{program}","id":3}}"#),
        r#"{"cmd":"analyze"}"#.into(),
        r#"{"cmd":"guru","id":"g"}"#.into(),
        r#"{"cmd":"slice","loop":"main/1"}"#.into(),
        r#"{"cmd":"assert","loop":"main/1","var":"a","kind":"independent"}"#.into(),
        r#"{"cmd":"advisory"}"#.into(),
        r#"{"cmd":"codeview"}"#.into(),
        r#"{"cmd":"certify","loop":"main/1","schedules":2,"seed":7}"#.into(),
        format!(r#"{{"cmd":"corpus","programs":[{{"name":"t","text":"{program}"}}],"workers":1}}"#),
        r#"{"cmd":"corpus","gen":3,"seed_base":5,"max_program_bytes":4096}"#.into(),
        r#"{"cmd":"stats"}"#.into(),
        r#"{"cmd":"checkpoint"}"#.into(),
        r#"{"cmd":"quit"}"#.into(),
        r#"{"cmd":"shutdown"}"#.into(),
        r#"{"cmd":"batch","requests":[{"cmd":"guru","id":1},{"cmd":"slice","loop":"main/1"}]}"#
            .into(),
    ]
}

/// Number of `Request` kinds.
const KINDS: usize = 15;

/// The index of `r`'s kind.  The match is exhaustive, so a new kind does
/// not compile until it is counted here and given a line in
/// [`valid_lines`].
fn kind(r: &Request) -> usize {
    match r {
        Request::Load { .. } => 0,
        Request::Reload { .. } => 1,
        Request::Analyze => 2,
        Request::Guru => 3,
        Request::Slice { .. } => 4,
        Request::Assert { .. } => 5,
        Request::Advisory => 6,
        Request::Codeview => 7,
        Request::Certify { .. } => 8,
        Request::Corpus { .. } => 9,
        Request::Stats => 10,
        Request::Checkpoint => 11,
        Request::Quit => 12,
        Request::Shutdown => 13,
        Request::Batch { .. } => 14,
    }
}

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

/// A position in `0..=len`.
fn at(rng: &mut TestRng, len: usize) -> usize {
    rng.below(len as u64 + 1) as usize
}

/// One to three random mutations of `line`.
fn mutate(rng: &mut TestRng, line: &[u8], valid: &[String], max_line: usize) -> Vec<u8> {
    let mut b = line.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(9) {
            0 if !b.is_empty() => {
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
            }
            1 => b.truncate(at(rng, b.len())),
            2 => {
                let other = pick(rng, valid).as_bytes();
                let from = at(rng, other.len());
                let to = from + at(rng, other.len() - from);
                let i = at(rng, b.len());
                b.splice(i..i, other[from..to].iter().copied());
            }
            3 => {
                let copy = b.clone();
                b.push(b'\n');
                b.extend_from_slice(&copy);
            }
            4 => {
                let fill = *pick(rng, b"x [{\"\\\xff");
                let n = max_line + 1 + at(rng, max_line);
                let i = at(rng, b.len());
                b.splice(i..i, std::iter::repeat_n(fill, n));
            }
            5 => {
                let run = *pick(rng, &["[", "{\"a\":", "[{\"k\":"]);
                let i = at(rng, b.len());
                let n = 1 + at(rng, 400);
                b.splice(i..i, run.repeat(n).into_bytes());
            }
            6 => {
                let i = at(rng, b.len());
                b.insert(i, 0);
            }
            7 => {
                let bad: [&[u8]; 5] = [
                    b"\xff",
                    b"\xc0\x80",
                    b"\xe2\x82",
                    b"\x80",
                    b"\xf4\x90\x80\x80",
                ];
                let bad = *pick(rng, &bad);
                let i = at(rng, b.len());
                b.splice(i..i, bad.iter().copied());
            }
            _ => {
                let i = at(rng, b.len());
                b.insert(i, *pick(rng, b"\n\r"));
            }
        }
    }
    b
}

/// A stream of one to six lines, most of them mutated, the last sometimes
/// without its newline.
fn case_stream(rng: &mut TestRng, valid: &[String], max_line: usize) -> Vec<u8> {
    let mut stream = Vec::new();
    let lines = 1 + rng.below(6);
    for i in 0..lines {
        let line = pick(rng, valid).as_bytes();
        if rng.below(4) == 0 {
            stream.extend_from_slice(line);
        } else {
            stream.extend(mutate(rng, line, valid, max_line));
        }
        if i + 1 < lines || rng.below(3) != 0 {
            stream.push(b'\n');
        }
    }
    stream
}

/// The frames a decoder capped at `max_line` must produce from `stream`,
/// however it is chunked.
fn expected_frames(stream: &[u8], max_line: usize) -> Vec<Frame> {
    let mut lines: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
    lines.pop(); // the bytes after the last newline: no frame yet
    lines
        .into_iter()
        .map(|line| {
            if line.len() > max_line {
                Frame::Oversize(line.len())
            } else {
                Frame::Line(String::from_utf8_lossy(line).trim().to_string())
            }
        })
        .collect()
}

/// Feed `stream` to a decoder capped at `max_line`, cycling through the
/// chunk sizes `chunks`, and check every property.
fn check_stream(stream: &[u8], max_line: usize, chunks: &[usize]) -> Result<(), String> {
    let mut d = FrameDecoder::new(max_line);
    let mut frames = Vec::new();
    let mut sizes = chunks.iter().cycle();
    let mut fed = 0;
    while fed < stream.len() {
        let n = sizes
            .next()
            .copied()
            .unwrap_or(1)
            .clamp(1, stream.len() - fed);
        d.feed(&stream[fed..fed + n]);
        fed += n;
        if d.buffered_bytes() > max_line + n {
            return Err(format!(
                "{} bytes buffered after a {n}-byte chunk (cap {max_line})",
                d.buffered_bytes()
            ));
        }
        while let Some(frame) = d.next_frame() {
            if let Frame::Line(text) = &frame {
                // Either outcome is an answer; only a panic is not.
                let _ = Request::parse(text);
            }
            frames.push(frame);
        }
    }
    let want = expected_frames(stream, max_line);
    if frames != want {
        return Err(format!(
            "chunks {chunks:?} framed {frames:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// [`check_stream`] with a panic turned into an error.
fn check_caught(stream: &[u8], max_line: usize, chunks: &[usize]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| check_stream(stream, max_line, chunks)))
        .unwrap_or_else(|_| Err(format!("panicked (chunks {chunks:?})")))
}

/// Fixed chunkings every saved stream is replayed under.
fn replay_chunkings(len: usize) -> Vec<Vec<usize>> {
    vec![vec![1], vec![7], vec![3, 1, 64], vec![len.max(1)]]
}

/// Saved streams: `m<cap>-<label>.bin` holds the raw bytes of a stream that
/// was fed to a decoder capped at `<cap>` bytes.
fn saved_streams() -> Vec<(PathBuf, usize, Vec<u8>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(regression_dir())
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let cap = name
                .strip_prefix('m')
                .and_then(|r| r.split('-').next())
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("{name}: expected m<cap>-<label>.bin"));
            let bytes = std::fs::read(&path).expect("read saved stream");
            (path, cap, bytes)
        })
        .collect()
}

#[test]
fn every_request_kind_has_a_valid_line() {
    let mut seen = [false; KINDS];
    for line in valid_lines() {
        let r = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        seen[kind(&r)] = true;
    }
    assert_eq!(seen, [true; KINDS]);
}

#[test]
fn mutated_streams_frame_and_parse_without_panicking() {
    for (path, cap, bytes) in saved_streams() {
        for chunks in replay_chunkings(bytes.len()) {
            if let Err(e) = check_caught(&bytes, cap, &chunks) {
                panic!("saved stream {} fails: {e}", path.display());
            }
        }
    }
    let valid = valid_lines();
    let mut rng = TestRng::from_seed(SEED);
    for case in 0..case_count() {
        let max_line = 64 + rng.below(448) as usize;
        let stream = case_stream(&mut rng, &valid, max_line);
        let chunks: Vec<usize> = (0..1 + rng.below(4))
            .map(|_| {
                let any = 1 + at(&mut rng, 2 * max_line);
                *pick(&mut rng, &[1, 2, 3, 7, 64, 4096, any])
            })
            .collect();
        if let Err(e) = check_caught(&stream, max_line, &chunks) {
            let dir = regression_dir();
            let path = dir.join(format!("m{max_line}-{:016x}.bin", fnv64(&stream)));
            let saved = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &stream));
            panic!(
                "case {case}: {e}\nstream ({} bytes) saved to {}: {saved:?}",
                stream.len(),
                path.display()
            );
        }
    }
}

/// A line of nothing but nesting, up to the daemon's own line cap, is an
/// error reply: the parser refuses it long before the stack runs out.
#[test]
fn a_nesting_bomb_at_the_line_cap_is_a_protocol_error() {
    let mut line = br#"{"cmd":"stats","x":"#.to_vec();
    line.resize(MAX_LINE_BYTES, b'[');
    line.push(b'\n');
    let mut d = FrameDecoder::default();
    d.feed(&line);
    let Some(Frame::Line(text)) = d.next_frame() else {
        panic!("a line of exactly the cap is a frame");
    };
    let err = Request::parse(&text).expect_err("unbalanced nesting");
    assert!(err.0.contains("nesting too deep"), "{err:?}");
}
