//! Document builders and the station dump shared by the workloads.

use blobstore::MediaKind;
use rand::Rng;
use relstore::Predicate;
use wdoc_core::ids::{DbName, ScriptName, StartUrl, TestRecordName, UserId};
use wdoc_core::tables::implementation::ProgramLang;
use wdoc_core::tables::test_record::{TestScope, TraversalMsg};
use wdoc_core::tables::{HtmlFile, Implementation, ProgramFile, Script, TestRecord};
use wdoc_core::{DatabaseInfo, WebDocDb};

/// The one document database every workload authors into.
pub const DB: &str = "mmu-courses";

/// The station's document database row.
#[must_use]
pub fn database() -> DatabaseInfo {
    DatabaseInfo {
        name: DbName::new(DB),
        keywords: vec!["courseware".into()],
        author: UserId::new("shih"),
        version: 1,
        created: 10,
    }
}

/// Script `name`, the `i`-th of its workload.
#[must_use]
pub fn script(name: &str, i: usize, keywords: Vec<String>) -> Script {
    Script {
        name: ScriptName::new(name),
        db: DbName::new(DB),
        keywords,
        author: UserId::new("shih"),
        version: 1 + (i % 3) as i64,
        created: 1_000 + i as u64,
        description: format!("script {name}"),
        expected_completion: i.is_multiple_of(2).then_some(9_000 + i as u64),
        percent_complete: (i % 101) as i64,
    }
}

/// The implementation of script `name` starting at `url`.
#[must_use]
pub fn implementation(url: &str, name: &str, i: usize) -> Implementation {
    Implementation {
        url: StartUrl::new(url),
        script: ScriptName::new(name),
        author: UserId::new("impl-team"),
        created: 2_000 + i as u64,
    }
}

/// HTML page `path` of the implementation at `url`.
#[must_use]
pub fn html_file(url: &str, path: String, content: bytes::Bytes) -> HtmlFile {
    HtmlFile {
        url: StartUrl::new(url),
        path,
        content,
    }
}

/// The applet of the implementation at `url`.
#[must_use]
pub fn program_file(url: &str, content: bytes::Bytes) -> ProgramFile {
    ProgramFile {
        url: StartUrl::new(url),
        path: "quiz.class".into(),
        lang: ProgramLang::JavaApplet,
        content,
    }
}

/// Test record `name` of script `script` run against `url`.
#[must_use]
pub fn test_record(name: &str, script: &str, url: &str, i: usize) -> TestRecord {
    TestRecord {
        name: TestRecordName::new(name),
        scope: if i.is_multiple_of(2) {
            TestScope::Local
        } else {
            TestScope::Global
        },
        messages: vec![
            TraversalMsg::Navigate("start.html".into()),
            TraversalMsg::FollowLink(1),
        ],
        script: ScriptName::new(script),
        url: Some(StartUrl::new(url)),
        created: 3_000 + i as u64,
    }
}

/// Every station table, every committed row, row ids included.
///
/// # Errors
/// When a select fails.
pub fn station_dump(db: &WebDocDb) -> Result<String, String> {
    let mut out = String::new();
    for schema in WebDocDb::station_schemas() {
        let rows = db
            .with_txn(|t| t.select(&schema.name, &Predicate::True))
            .map_err(|e| format!("dump {}: {e}", schema.name))?;
        out.push_str(&format!("== {}\n", schema.name));
        for (id, row) in rows {
            out.push_str(&format!("{id:?} {row:?}\n"));
        }
    }
    Ok(out)
}

/// Row count of `table`.
///
/// # Errors
/// When the count fails.
pub fn row_count(db: &WebDocDb, table: &str) -> Result<usize, String> {
    db.with_txn(|t| t.count(table, &Predicate::True))
        .map_err(|e| format!("count {table}: {e}"))
}

/// A deterministic 64-bit mix of a few integers (splitmix64 rounds).
#[must_use]
pub fn mix(parts: &[u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        x ^= p;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// The proportions of `MediaMix::courseware` (image-heavy pages with
/// occasional audio, animation and video, rare MIDI).
const COURSEWARE: [(MediaKind, usize); 5] = [
    (MediaKind::StillImage, 50),
    (MediaKind::Audio, 20),
    (MediaKind::Animation, 15),
    (MediaKind::Video, 10),
    (MediaKind::Midi, 5),
];

/// `n` media kinds in the courseware proportions (largest remainders
/// round), shuffled. Drawing kinds one by one instead would let a seed
/// with a few more videos move every byte count of the run.
pub fn courseware_deck(rng: &mut impl Rng, n: usize) -> Vec<MediaKind> {
    let total: usize = COURSEWARE.iter().map(|(_, w)| w).sum();
    let mut counts: Vec<(MediaKind, usize, usize)> = COURSEWARE
        .iter()
        .map(|&(k, w)| (k, n * w / total, n * w % total))
        .collect();
    let short = n - counts.iter().map(|c| c.1).sum::<usize>();
    let mut by_rem: Vec<usize> = (0..counts.len()).collect();
    by_rem.sort_by_key(|&i| std::cmp::Reverse(counts[i].2));
    for &i in by_rem.iter().take(short) {
        counts[i].1 += 1;
    }
    let mut deck: Vec<MediaKind> = counts
        .iter()
        .flat_map(|&(k, c, _)| std::iter::repeat_n(k, c))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deck_keeps_proportions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let deck = courseware_deck(&mut rng, 48);
        assert_eq!(deck.len(), 48);
        let count = |k| deck.iter().filter(|&&d| d == k).count();
        assert_eq!(count(MediaKind::StillImage), 24);
        assert_eq!(count(MediaKind::Video), 5);
        assert_eq!(count(MediaKind::Midi), 2);
        assert_eq!(courseware_deck(&mut rng, 7).len(), 7);
    }
}
