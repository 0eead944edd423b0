//! Minimal to-string / from-string support for the server's text formats.
//!
//! The workspace's serde is a no-op derive shim (the build container has
//! no crates.io access), so the snapshot and manifest formats are built
//! on this hand-rolled module instead: a line-oriented
//! `[section]` / `key = value` syntax plus exact `f64` round-tripping
//! via IEEE-754 bit patterns. Repeated keys are allowed (that is how a
//! population of genomes serializes) and `#` starts a comment.

use digamma_obs::{fnv1a64, FNV1A64_OFFSET};
use std::fmt;

/// A parse or format violation in a server text document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    message: String,
}

impl TextError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> TextError {
        TextError { message: message.into() }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TextError {}

/// One `[name]` block of `key = value` entries, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The name between the brackets.
    pub name: String,
    /// Entries in document order; keys may repeat.
    pub entries: Vec<(String, String)>,
}

impl Section {
    /// Creates an empty section.
    pub fn new(name: impl Into<String>) -> Section {
        Section { name: name.into(), entries: Vec::new() }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains a newline — values are single-line by
    /// construction in every server format.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        assert!(!value.contains('\n'), "values are single-line");
        self.entries.push((key, value));
    }

    /// The first value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Every value for `key`, in document order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.entries.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    /// The first value for `key`, or an error naming the section.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when the key is absent.
    pub fn require(&self, key: &str) -> Result<&str, TextError> {
        self.get(key).ok_or_else(|| TextError::new(format!("[{}] is missing `{key}`", self.name)))
    }

    /// Parses the first value for `key` as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when the value is present but unparsable.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, TextError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| TextError::new(format!("[{}] has bad `{key}`: {raw:?}", self.name))),
        }
    }

    /// Renders the section back to text.
    pub fn render(&self) -> String {
        let mut out = format!("[{}]\n", self.name);
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// Renders sections into one document.
pub fn render_sections(sections: &[Section]) -> String {
    let mut out = String::new();
    for (i, s) in sections.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&s.render());
    }
    out
}

/// Parses a document of `[section]` / `key = value` lines.
///
/// Blank lines and `#` comments are skipped; a `key = value` line before
/// the first section header is an error.
///
/// # Errors
///
/// Returns [`TextError`] with the offending line number on malformed
/// input.
pub fn parse_sections(text: &str) -> Result<Vec<Section>, TextError> {
    let mut sections: Vec<Section> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.push(Section::new(name.trim()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(TextError::new(format!("line {}: expected `key = value`", lineno + 1)));
        };
        let Some(section) = sections.last_mut() else {
            return Err(TextError::new(format!("line {}: entry before any [section]", lineno + 1)));
        };
        section.entries.push((key.trim().to_owned(), value.trim().to_owned()));
    }
    Ok(sections)
}

/// The checksum of a record: FNV-1a 64 over the section rendered
/// *without* its `crc` entry, as 16 hex digits. Entry order matters and
/// is preserved by both [`Section::render`] and the parser, so writer
/// and reader agree on the hashed bytes.
pub(crate) fn record_crc(section: &Section) -> String {
    let mut clean = Section::new(section.name.clone());
    for (key, value) in &section.entries {
        if key != "crc" {
            clean.entries.push((key.clone(), value.clone()));
        }
    }
    format!("{:016x}", fnv1a64(FNV1A64_OFFSET, clean.render().as_bytes()))
}

/// Prepends the `crc` entry ([`record_crc`]) to a freshly built record —
/// the sealing shared by journal records and spill-file entries. The
/// checksum goes *first* so a torn tail (which loses the record's end,
/// not its start) always retains the declared checksum that will
/// convict it.
pub(crate) fn seal(section: Section) -> Section {
    let crc = record_crc(&section);
    let mut sealed = Section::new(section.name.clone());
    sealed.push("crc", crc);
    sealed.entries.extend(section.entries);
    sealed
}

/// Renders an `f64` exactly, as its 16-hex-digit IEEE-754 bit pattern.
pub fn f64_to_text(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses an `f64` rendered by [`f64_to_text`] — bit-exact, including
/// infinities and NaN payloads.
///
/// # Errors
///
/// Returns [`TextError`] when the input is not 16 hex digits.
pub fn f64_from_text(s: &str) -> Result<f64, TextError> {
    if s.len() != 16 {
        return Err(TextError::new(format!("bad f64 bits (need 16 hex digits): {s:?}")));
    }
    let bits =
        u64::from_str_radix(s, 16).map_err(|_| TextError::new(format!("bad f64 bits: {s:?}")))?;
    Ok(f64::from_bits(bits))
}

/// Renders a slice of `f64`s as one comma-joined exact line.
pub fn f64s_to_text(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|&v| f64_to_text(v)).collect();
    rendered.join(",")
}

/// Parses a line rendered by [`f64s_to_text`]; empty input is an empty
/// slice.
///
/// # Errors
///
/// Returns [`TextError`] if any element fails to parse.
pub fn f64s_from_text(s: &str) -> Result<Vec<f64>, TextError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(f64_from_text).collect()
}

/// Renders a slice of `f64`s as bit-exact run-length-encoded text:
/// comma-joined `<16 hex digits>x<count>` segments (count omitted when
/// 1). Monotone step functions — the best-so-far history checkpoints
/// carry — compress to one segment per distinct value, so the rendered
/// size tracks *improvements*, not samples: a 100k-sample history with a
/// dozen improvements renders in a few hundred bytes instead of 1.6 MB.
pub fn f64s_to_rle_text(values: &[f64]) -> String {
    let mut segments: Vec<String> = Vec::new();
    let mut run: Option<(u64, u64)> = None; // (bits, count)
    for &v in values {
        let bits = v.to_bits();
        match &mut run {
            Some((b, count)) if *b == bits => *count += 1,
            _ => {
                if let Some((b, count)) = run.take() {
                    segments.push(render_run(b, count));
                }
                run = Some((bits, 1));
            }
        }
    }
    if let Some((b, count)) = run {
        segments.push(render_run(b, count));
    }
    segments.join(",")
}

fn render_run(bits: u64, count: u64) -> String {
    if count == 1 {
        format!("{bits:016x}")
    } else {
        format!("{bits:016x}x{count}")
    }
}

/// Parses a line rendered by [`f64s_to_rle_text`] — bit-exact, empty
/// input is an empty slice. `max_values` bounds the materialized
/// length: run lengths come from untrusted files (a corrupt snapshot
/// could otherwise declare a 10^18-element run and drive allocation
/// into a panic), so callers pass the count the surrounding document
/// declares.
///
/// # Errors
///
/// Returns [`TextError`] on malformed segments, a zero run length, or
/// a total exceeding `max_values`.
pub fn f64s_from_rle_text(s: &str, max_values: usize) -> Result<Vec<f64>, TextError> {
    let s = s.trim();
    let mut out = Vec::new();
    if s.is_empty() {
        return Ok(out);
    }
    for segment in s.split(',') {
        let (bits, count) = match segment.split_once('x') {
            Some((bits, count)) => {
                let count: u64 = count
                    .parse()
                    .map_err(|_| TextError::new(format!("bad run length: {segment:?}")))?;
                if count == 0 {
                    return Err(TextError::new(format!("zero run length: {segment:?}")));
                }
                (bits, count)
            }
            None => (segment, 1),
        };
        if (count as u128) + out.len() as u128 > max_values as u128 {
            return Err(TextError::new(format!(
                "run-length history exceeds the declared {max_values} values"
            )));
        }
        let value = f64_from_text(bits)?;
        out.extend(std::iter::repeat_n(value, count as usize));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip() {
        let mut a = Section::new("job");
        a.push("model", "ncf");
        a.push("genome", "8,16");
        a.push("genome", "4,4");
        let mut b = Section::new("other");
        b.push("k", "v");
        let doc = render_sections(&[a.clone(), b.clone()]);
        let parsed = parse_sections(&doc).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn repeated_keys_are_preserved_in_order() {
        let doc = "[s]\ng = first\ng = second\n";
        let sections = parse_sections(doc).unwrap();
        assert_eq!(sections[0].get("g"), Some("first"));
        assert_eq!(sections[0].get_all("g"), vec!["first", "second"]);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let doc = "# header\n\n[s]\n# note\nk = v\n\n";
        let sections = parse_sections(doc).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].get("k"), Some("v"));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = parse_sections("[s]\nnot a kv line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_sections("k = v\n").unwrap_err();
        assert!(err.to_string().contains("before any"), "{err}");
    }

    #[test]
    fn require_and_parsed_accessors() {
        let sections = parse_sections("[s]\nn = 42\n").unwrap();
        let s = &sections[0];
        assert_eq!(s.require("n").unwrap(), "42");
        assert!(s.require("missing").is_err());
        assert_eq!(s.get_parsed_or("n", 0u64).unwrap(), 42);
        assert_eq!(s.get_parsed_or("missing", 7u64).unwrap(), 7);
        let sections = parse_sections("[s]\nn = nope\n").unwrap();
        assert!(sections[0].get_parsed_or("n", 0u64).is_err());
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        let pi = std::f64::consts::PI;
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1e300, pi, f64::MIN] {
            let text = f64_to_text(v);
            assert_eq!(f64_from_text(&text).unwrap().to_bits(), v.to_bits());
        }
        // NaN keeps its payload.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64_from_text(&f64_to_text(nan)).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn rle_roundtrips_bit_exactly_and_stays_flat() {
        // A 100k-sample best-so-far curve with 12 improvements: the
        // rendered form must stay a few hundred bytes and round-trip to
        // the bit.
        let mut history = Vec::with_capacity(100_000);
        let mut best = f64::INFINITY;
        for i in 0..100_000u64 {
            if i % 8_333 == 1 {
                best = 1e9 / (i + 1) as f64;
            }
            history.push(best);
        }
        let text = f64s_to_rle_text(&history);
        assert!(text.len() < 600, "rendered {} bytes", text.len());
        let back = f64s_from_rle_text(&text, history.len()).unwrap();
        assert_eq!(back.len(), history.len());
        for (a, b) in history.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rle_handles_singletons_and_rejects_junk() {
        let values = vec![1.0, 2.0, 2.0, f64::INFINITY];
        let text = f64s_to_rle_text(&values);
        let back = f64s_from_rle_text(&text, values.len()).unwrap();
        assert_eq!(values, back);
        assert!(f64s_from_rle_text("", 10).unwrap().is_empty());
        assert!(f64s_from_rle_text("zz", 10).is_err());
        assert!(f64s_from_rle_text("3ff0000000000000x0", 10).is_err(), "zero run");
        assert!(f64s_from_rle_text("3ff0000000000000xq", 10).is_err(), "bad count");
        // A corrupt run length cannot drive allocation past the bound —
        // it errors out before materializing anything.
        let bomb = "3ff0000000000000x9000000000000000000";
        assert!(f64s_from_rle_text(bomb, 1024).is_err(), "oversized run");
        assert!(f64s_from_rle_text("3ff0000000000000x5", 4).is_err(), "over declared count");
    }

    #[test]
    fn f64_slices_roundtrip() {
        let values = vec![f64::INFINITY, 1.0, 0.1 + 0.2];
        let text = f64s_to_text(&values);
        let back = f64s_from_text(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(f64s_from_text("").unwrap().is_empty());
        assert!(f64s_from_text("zz").is_err());
    }
}
