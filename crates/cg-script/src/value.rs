//! Cookie-value generation: the identifier formats the ecosystem uses.
//!
//! Formats follow the real cookies the paper names: `_ga`
//! (`GA1.1.<id>.<ts>`), `_fbp` (`fb.1.<ts-ms>.<id>`), `_awl`
//! (`<count>.<ts>.<session>`), consent strings, and the IAB `us_privacy`
//! string. Identifier segments are ≥8 characters so the detection
//! pipeline (§4.4) treats them as candidates; `Short` values deliberately
//! fall below the threshold.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a behaviour generates a cookie value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueSpec {
    /// A literal value.
    Fixed(String),
    /// Google-Analytics style: `GA1.1.<9-digit id>.<unix-s>`.
    GaStyle,
    /// Meta pixel style: `fb.1.<unix-ms>.<18-digit id>`.
    FbpStyle,
    /// A random lowercase-hex identifier of the given length.
    HexId(u16),
    /// A UUID-shaped identifier.
    Uuid,
    /// Admiral `_awl` style: `<count>.<unix-s>.<8-char session>`.
    CounterTimestampSession,
    /// OneTrust-style consent string (long, contains `&` and `=`).
    ConsentString,
    /// The IAB CCPA string (`1YNN`) — a consent *signal*, not an id.
    UsPrivacy,
    /// A short (<8 chars) value that can never be an identifier candidate.
    Short,
}

impl ValueSpec {
    /// Materializes a value at wall-clock `now_ms` using `rng`.
    pub fn generate<R: Rng>(&self, now_ms: i64, rng: &mut R) -> String {
        match self {
            ValueSpec::Fixed(s) => s.clone(),
            ValueSpec::GaStyle => {
                // Identifier cookies carry the timestamp of the visit on
                // which they were first minted — usually days in the past
                // (and never colliding across cookies within a page).
                let minted_s = (now_ms / 1000) - rng.gen_range(3_600i64..7_776_000);
                format!(
                    "GA1.1.{}.{}",
                    rng.gen_range(100_000_000u64..1_000_000_000),
                    minted_s
                )
            }
            ValueSpec::FbpStyle => {
                let minted_ms = now_ms - rng.gen_range(3_600_000i64..7_776_000_000);
                format!(
                    "fb.1.{}.{}",
                    minted_ms,
                    rng.gen_range(100_000_000_000_000_000u64..1_000_000_000_000_000_000)
                )
            }
            ValueSpec::HexId(len) => {
                let mut s = String::with_capacity(*len as usize);
                for _ in 0..*len {
                    s.push(char::from_digit(rng.gen_range(0..16) as u32, 16).unwrap());
                }
                s
            }
            ValueSpec::Uuid => {
                let mut hex = |n: usize| {
                    (0..n)
                        .map(|_| char::from_digit(rng.gen_range(0..16) as u32, 16).unwrap())
                        .collect::<String>()
                };
                format!("{}-{}-{}-{}-{}", hex(8), hex(4), hex(4), hex(4), hex(12))
            }
            ValueSpec::CounterTimestampSession => {
                let minted_s = (now_ms / 1000) - rng.gen_range(60i64..604_800);
                format!(
                    "{}.{}.{}-{}",
                    rng.gen_range(1..20),
                    minted_s,
                    rng.gen_range(10_000_000u64..100_000_000),
                    "x"
                )
            }
            ValueSpec::ConsentString => {
                format!(
                    "isGpcEnabled=0&datestamp={}&version=202405.1.0&browserGpcFlag=0&consentId={}&interactionCount=1&landingPath=NotLandingPage&groups=C0001%3A1%2CC0002%3A1",
                    now_ms,
                    ValueSpec::Uuid.generate(now_ms, rng)
                )
            }
            ValueSpec::UsPrivacy => "1YNN".to_string(),
            ValueSpec::Short => format!("v{}", rng.gen_range(0..100)),
        }
    }

    /// Whether values from this spec contain at least one identifier
    /// candidate (a delimiter-separated segment of ≥8 chars) — what the
    /// detection pipeline can latch onto.
    pub fn carries_identifier(&self) -> bool {
        !matches!(self, ValueSpec::UsPrivacy | ValueSpec::Short)
            && !matches!(self, ValueSpec::Fixed(s) if segments(s).next().is_none())
    }
}

/// The identifier candidates of a cookie value exactly as §4.4
/// prescribes: split on non-alphanumeric delimiters, keep segments of at
/// least eight characters.
pub fn segments(value: &str) -> impl Iterator<Item = &str> {
    value
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|s| s.len() >= 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn ga_style_has_two_identifier_segments() {
        let v = ValueSpec::GaStyle.generate(1_746_838_827_000, &mut rng());
        assert!(v.starts_with("GA1.1."));
        let segs: Vec<&str> = segments(&v).collect();
        assert_eq!(segs.len(), 2, "value {v}");
        assert!(segs.iter().all(|s| s.len() >= 8));
    }

    #[test]
    fn fbp_style_matches_case_study_shape() {
        // §5.4: fb.0.1746746266109.868308499845957651 — a 13-digit
        // minted-at timestamp (in the past) and an 18-digit id.
        let v = ValueSpec::FbpStyle.generate(1_746_746_266_109, &mut rng());
        let parts: Vec<&str> = v.split('.').collect();
        assert_eq!(parts[0], "fb");
        assert_eq!(parts[2].len(), 13);
        assert!(parts[2].parse::<i64>().unwrap() < 1_746_746_266_109);
        assert_eq!(parts[3].len(), 18);
    }

    #[test]
    fn short_values_carry_no_identifier() {
        let v = ValueSpec::Short.generate(0, &mut rng());
        assert_eq!(segments(&v).next(), None);
        assert!(!ValueSpec::Short.carries_identifier());
        assert!(!ValueSpec::UsPrivacy.carries_identifier());
        assert!(ValueSpec::GaStyle.carries_identifier());
    }

    #[test]
    fn segment_split_matches_paper_spec() {
        let split = |v| segments(v).collect::<Vec<_>>();
        assert_eq!(
            split("GA1.1.444332364.1746838827"),
            ["444332364", "1746838827"]
        );
        assert_eq!(split("short.tiny"), Vec::<&str>::new());
        assert_eq!(split("abcdefgh|ijklmnop"), ["abcdefgh", "ijklmnop"]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ValueSpec::Uuid.generate(5, &mut rng());
        let b = ValueSpec::Uuid.generate(5, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn consent_string_is_long_and_structured() {
        let v = ValueSpec::ConsentString.generate(99, &mut rng());
        assert!(v.contains("datestamp=") && v.contains("consentId="));
        assert!(v.len() > 100);
    }
}
