//! The shared page encoding: `HET-CKPT v1`.
//!
//! One self-describing text page — header, one row per line, checksummed
//! footer:
//!
//! ```text
//! HET-CKPT v1 dim=<D>
//! <key> <clock> <v0> <v1> … <vD-1>
//! HET-CKPT-END rows=<N> crc=<FNV-1a-64 of header+rows, hex>
//! ```
//!
//! This is both the checkpoint format (`het-ps::checkpoint` wraps it)
//! and the unit of the tiered store's cold tier, where each appended
//! page holds one spilled row. Sharing one implementation means the two
//! on-disk formats cannot drift — a byte-layout test in this module and
//! a round-trip test in `het-ps` pin it from both sides.
//!
//! The footer makes corruption detectable: a truncated page is missing
//! it (or has fewer rows than it claims), and a flipped byte anywhere in
//! the header or rows changes the checksum. Readers additionally reject
//! non-finite vector values — both checkpoints and the cold log are
//! recovery paths of record, so a bad page must fail loudly at read
//! time. Duplicate keys *within* one page are allowed at this layer (the
//! cold tier uses a same-key follow-up row to carry optimiser state);
//! the checkpoint reader layers its own duplicate rejection on top.

use het_json::{fnv1a64, FNV_OFFSET};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// One encoded embedding row.
#[derive(Clone, Debug, PartialEq)]
pub struct PageRow {
    /// The embedding key.
    pub key: u64,
    /// The global clock `c_g`.
    pub clock: u64,
    /// The embedding vector.
    pub vector: Vec<f32>,
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes one page of `rows` (any order; vectors must match `dim` and be
/// finite — violations are rejected, since a page that cannot be read
/// back is worse than no page).
pub fn write_page<W: Write>(w: W, dim: usize, rows: &[PageRow]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let mut crc = FNV_OFFSET;
    let header = format!("HET-CKPT v1 dim={dim}\n");
    crc = fnv1a64(header.as_bytes(), crc);
    w.write_all(header.as_bytes())?;
    let mut line = String::new();
    for row in rows {
        if row.vector.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("row {} has dim {} != {}", row.key, row.vector.len(), dim),
            ));
        }
        if row.vector.iter().any(|v| !v.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("row {} contains a non-finite value", row.key),
            ));
        }
        line.clear();
        line.push_str(&format!("{} {}", row.key, row.clock));
        for v in &row.vector {
            line.push_str(&format!(" {v}"));
        }
        line.push('\n');
        crc = fnv1a64(line.as_bytes(), crc);
        w.write_all(line.as_bytes())?;
    }
    writeln!(w, "HET-CKPT-END rows={} crc={:016x}", rows.len(), crc)?;
    w.flush()
}

/// [`write_page`] into a fresh buffer — the cold tier's append unit.
pub fn encode_page(dim: usize, rows: &[PageRow]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_page(&mut buf, dim, rows)?;
    Ok(buf)
}

/// Reads one page, returning `(dim, rows)`.
///
/// Rejects: a bad or missing header, a missing/malformed footer
/// (truncation), a row-count or checksum mismatch, and
/// short/long/non-finite vectors. Duplicate keys are *not* rejected
/// here — see the module docs.
pub fn read_page<R: Read>(r: R) -> io::Result<(usize, Vec<PageRow>)> {
    let mut lines = BufReader::new(r).lines();
    let header = lines
        .next()
        .ok_or_else(|| data_err("empty checkpoint".to_string()))??;
    let dim = header
        .strip_prefix("HET-CKPT v1 dim=")
        .and_then(|d| d.parse::<usize>().ok())
        .ok_or_else(|| data_err(format!("bad header: {header}")))?;
    let mut crc = fnv1a64(format!("{header}\n").as_bytes(), FNV_OFFSET);
    let mut rows: Vec<PageRow> = Vec::new();
    let mut footer: Option<String> = None;
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if let Some(rest) = line.strip_prefix("HET-CKPT-END ") {
            footer = Some(rest.to_string());
            break;
        }
        if line.is_empty() {
            continue;
        }
        crc = fnv1a64(format!("{line}\n").as_bytes(), crc);
        let mut parts = line.split_ascii_whitespace();
        let parse_err = |what: &str| data_err(format!("line {}: bad {what}", lineno + 2));
        let key: u64 = parts
            .next()
            .ok_or_else(|| parse_err("key"))?
            .parse()
            .map_err(|_| parse_err("key"))?;
        let clock: u64 = parts
            .next()
            .ok_or_else(|| parse_err("clock"))?
            .parse()
            .map_err(|_| parse_err("clock"))?;
        let vector: Vec<f32> = parts
            .map(|p| p.parse::<f32>().map_err(|_| parse_err("value")))
            .collect::<Result<_, _>>()?;
        if vector.len() != dim {
            return Err(parse_err("vector length"));
        }
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(data_err(format!(
                "line {}: non-finite value for key {key}",
                lineno + 2
            )));
        }
        rows.push(PageRow { key, clock, vector });
    }
    let footer = footer.ok_or_else(|| data_err("truncated checkpoint: missing footer".into()))?;
    let (rows_part, crc_part) = footer
        .split_once(' ')
        .ok_or_else(|| data_err(format!("bad footer: {footer}")))?;
    let claimed_rows: usize = rows_part
        .strip_prefix("rows=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| data_err(format!("bad footer row count: {footer}")))?;
    let claimed_crc: u64 = crc_part
        .strip_prefix("crc=")
        .and_then(|c| u64::from_str_radix(c, 16).ok())
        .ok_or_else(|| data_err(format!("bad footer checksum: {footer}")))?;
    if claimed_rows != rows.len() {
        return Err(data_err(format!(
            "truncated checkpoint: footer claims {claimed_rows} rows, found {}",
            rows.len()
        )));
    }
    if claimed_crc != crc {
        return Err(data_err(format!(
            "checkpoint checksum mismatch: footer {claimed_crc:016x}, computed {crc:016x}"
        )));
    }
    Ok((dim, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_rows() -> Vec<PageRow> {
        vec![
            PageRow {
                key: 3,
                clock: 7,
                vector: vec![1.5, -0.25],
            },
            PageRow {
                key: 9,
                clock: 0,
                vector: vec![0.0, 42.0],
            },
        ]
    }

    #[test]
    fn round_trip_through_buffer() {
        let rows = demo_rows();
        let buf = encode_page(2, &rows).unwrap();
        let (dim, restored) = read_page(buf.as_slice()).unwrap();
        assert_eq!(dim, 2);
        assert_eq!(restored, rows);
    }

    /// Pins the byte layout. The same bytes are produced by
    /// `het-ps::checkpoint` (which delegates here) and consumed by the
    /// cold tier's log replay — if this test needs updating, every
    /// existing checkpoint and cold log on disk breaks.
    #[test]
    fn byte_layout_is_pinned() {
        let buf = encode_page(2, &demo_rows()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "HET-CKPT v1 dim=2\n\
             3 7 1.5 -0.25\n\
             9 0 0 42\n\
             HET-CKPT-END rows=2 crc=c57fef519998112c\n"
        );
    }

    #[test]
    fn fnv_vector_matches_reference() {
        // FNV-1a 64 of "a" from the reference implementation.
        assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xaf63dc4c8601ec8c);
        // Empty input is the offset basis.
        assert_eq!(fnv1a64(b"", FNV_OFFSET), FNV_OFFSET);
    }

    #[test]
    fn duplicate_keys_allowed_at_page_layer() {
        let rows = vec![
            PageRow {
                key: 5,
                clock: 1,
                vector: vec![0.5],
            },
            PageRow {
                key: 5,
                clock: 0,
                vector: vec![2.0],
            },
        ];
        let buf = encode_page(1, &rows).unwrap();
        let (_, restored) = read_page(buf.as_slice()).unwrap();
        assert_eq!(restored, rows);
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let buf = encode_page(2, &demo_rows()).unwrap();
        let text = String::from_utf8(buf).unwrap();

        let cut = &text[..text.rfind("HET-CKPT-END").unwrap()];
        let err = read_page(cut.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing footer"), "{err}");

        let tampered = text.replacen("3 7 ", "3 8 ", 1);
        let err = read_page(tampered.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn non_finite_rejected_both_ways() {
        let rows = vec![PageRow {
            key: 1,
            clock: 0,
            vector: vec![f32::NAN, 0.0],
        }];
        assert!(encode_page(2, &rows).is_err());
        let text = "HET-CKPT v1 dim=2\n1 0 0.5 inf\nHET-CKPT-END rows=1 crc=0\n";
        let err = read_page(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn wrong_dim_write_rejected() {
        let rows = vec![PageRow {
            key: 1,
            clock: 0,
            vector: vec![0.0; 3],
        }];
        assert!(encode_page(2, &rows).is_err());
    }
}
