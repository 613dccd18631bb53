//! The deterministic event loop and behaviour interpreter.
//!
//! Semantics follow the browser event-loop model: macrotasks run in
//! (time, FIFO) order; the microtask queue drains completely between
//! macrotasks; `Defer` schedules a future macrotask; injected scripts run
//! as fresh tasks with their own stack (matching how a real stack trace
//! looks when an injected script executes later).
//!
//! Programs are borrowed, never copied: a task, a deferred callback and
//! a change listener each hold a slice of the script's program (`'a`),
//! which outlives the loop.

use crate::behavior::{CookieSelection, Encoding, ScriptOp, SegmentPolicy};
use crate::context::{Attribution, StackFrame};
use crate::platform::Platform;
use crate::value::segments;
use cg_dom::ScriptId;
use cg_url::query::percent_encode;
use cg_url::Url;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// A script resolved and ready to run: identity plus its program.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptExecution<'a> {
    /// Document-level script id.
    pub script_id: ScriptId,
    /// Source URL (`None` = inline), parsed once and shared by every
    /// frame of the script.
    pub url: Option<Arc<Url>>,
    /// The behaviour program.
    pub ops: &'a [ScriptOp],
}

#[derive(Debug)]
struct Task<'a> {
    at_ms: u64,
    seq: u64,
    stack: Vec<StackFrame>,
    async_lost: bool,
    ops: &'a [ScriptOp],
}

/// A registered CookieStore `change`-event listener.
#[derive(Debug)]
struct ChangeListener<'a> {
    stack: Vec<StackFrame>,
    async_lost: bool,
    watch: Option<&'a str>,
    deletions_only: bool,
    ops: &'a [ScriptOp],
}

/// Statistics from one event-loop run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Macro- plus microtasks executed.
    pub tasks_run: usize,
    /// Individual ops executed.
    pub ops_run: usize,
    /// Scripts dynamically injected during the run.
    pub scripts_injected: usize,
    /// CookieStore `change` events delivered to listeners.
    pub change_events_fired: usize,
    /// True when the op budget was exhausted (runaway-behaviour guard).
    pub truncated: bool,
    /// Simulated time when the loop went idle.
    pub finished_at_ms: u64,
}

/// The event loop over programs borrowed for `'a`. Time is virtual: it
/// advances to each task's deadline.
pub struct EventLoop<'a> {
    /// Wall-clock epoch (unix ms) corresponding to `now_ms == 0`; cookie
    /// values embed realistic timestamps derived from it.
    wall_epoch_ms: i64,
    now_ms: u64,
    seq: u64,
    macrotasks: BinaryHeap<Reverse<TaskKey>>,
    tasks: Vec<Option<Task<'a>>>,
    microtasks: VecDeque<Task<'a>>,
    listeners: Vec<ChangeListener<'a>>,
    max_ops: usize,
}

/// Heap key: (time, sequence) → index into `tasks`.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct TaskKey(u64, u64, usize);

impl<'a> EventLoop<'a> {
    /// Creates an empty loop whose virtual time 0 corresponds to
    /// `wall_epoch_ms` (unix milliseconds).
    pub fn new(wall_epoch_ms: i64) -> EventLoop<'a> {
        EventLoop {
            wall_epoch_ms,
            now_ms: 0,
            seq: 0,
            macrotasks: BinaryHeap::new(),
            tasks: Vec::new(),
            microtasks: VecDeque::new(),
            listeners: Vec::new(),
            max_ops: 500_000,
        }
    }

    /// Caps the number of ops a run may execute (default 500k).
    pub fn with_max_ops(mut self, max_ops: usize) -> EventLoop<'a> {
        self.max_ops = max_ops;
        self
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Wall-clock time for value generation.
    pub fn wall_now_ms(&self) -> i64 {
        self.wall_epoch_ms + self.now_ms as i64
    }

    /// Schedules a script execution as a macrotask at `at_ms`.
    pub fn push_script(&mut self, exec: ScriptExecution<'a>, at_ms: u64) {
        self.push_task(Task {
            at_ms,
            seq: 0,
            stack: vec![StackFrame {
                script_id: exec.script_id,
                url: exec.url,
            }],
            async_lost: false,
            ops: exec.ops,
        });
    }

    fn push_task(&mut self, mut task: Task<'a>) {
        task.seq = self.seq;
        self.seq += 1;
        let idx = self.tasks.len();
        self.macrotasks
            .push(Reverse(TaskKey(task.at_ms, task.seq, idx)));
        self.tasks.push(Some(task));
    }

    /// Runs until both queues are empty (or the op budget is exhausted).
    pub fn run<P: Platform<'a>, R: Rng>(&mut self, platform: &mut P, rng: &mut R) -> RunStats {
        let mut stats = RunStats::default();
        loop {
            // Microtasks drain fully before the next macrotask.
            while let Some(task) = self.microtasks.pop_front() {
                stats.tasks_run += 1;
                self.exec_task(platform, rng, task, &mut stats);
                if stats.truncated {
                    stats.finished_at_ms = self.now_ms;
                    return stats;
                }
                self.dispatch_cookie_changes(platform, &mut stats);
            }
            let Some(Reverse(TaskKey(at, _, idx))) = self.macrotasks.pop() else {
                break;
            };
            let task = self.tasks[idx].take().expect("task taken twice");
            self.now_ms = self.now_ms.max(at);
            stats.tasks_run += 1;
            self.exec_task(platform, rng, task, &mut stats);
            if stats.truncated {
                break;
            }
            self.dispatch_cookie_changes(platform, &mut stats);
        }
        stats.finished_at_ms = self.now_ms;
        stats
    }

    /// Drains the platform's change feed and schedules the handler
    /// programs of matching listeners. Listeners observe only changes
    /// the platform deems visible to them (CookieGuard's read policy),
    /// so respawning trackers cannot watch foreign cookies. With no
    /// listener registered the feed is discarded unread.
    fn dispatch_cookie_changes<P: Platform<'a>>(&mut self, platform: &mut P, stats: &mut RunStats) {
        if self.listeners.is_empty() {
            platform.discard_cookie_changes();
            return;
        }
        let changes = platform.drain_cookie_changes();
        // Handlers run as later tasks, so no listener registers during a
        // dispatch: a handler registering another listener does not
        // observe the change that triggered it.
        for change in &changes {
            for i in 0..self.listeners.len() {
                let listener = &self.listeners[i];
                if listener.watch.is_some_and(|watch| watch != change.name) {
                    continue;
                }
                if listener.deletions_only && !change.deleted {
                    continue;
                }
                let at = Attribution::from_stack(&listener.stack, self.now_ms, listener.async_lost);
                if !platform.cookie_change_visible(&at, &change.name) {
                    continue;
                }
                stats.change_events_fired += 1;
                let task = Task {
                    at_ms: self.now_ms,
                    seq: 0,
                    stack: listener.stack.clone(),
                    async_lost: listener.async_lost,
                    ops: listener.ops,
                };
                self.push_task(task);
            }
        }
    }

    fn exec_task<P: Platform<'a>, R: Rng>(
        &mut self,
        platform: &mut P,
        rng: &mut R,
        task: Task<'a>,
        stats: &mut RunStats,
    ) {
        let at = Attribution::from_stack(&task.stack, self.now_ms, task.async_lost);
        for op in task.ops {
            if stats.ops_run >= self.max_ops {
                stats.truncated = true;
                return;
            }
            stats.ops_run += 1;
            self.exec_op(platform, rng, &task.stack, task.async_lost, &at, op, stats);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_op<P: Platform<'a>, R: Rng>(
        &mut self,
        platform: &mut P,
        rng: &mut R,
        stack: &[StackFrame],
        async_lost: bool,
        at: &Attribution,
        op: &'a ScriptOp,
        stats: &mut RunStats,
    ) {
        let wall = self.wall_now_ms();
        match op {
            ScriptOp::SetCookie { name, value, attrs } => {
                let v = value.generate(wall, rng);
                let mut raw = format!("{name}={v}");
                if let Some(ma) = attrs.max_age_s {
                    let _ = write!(raw, "; Max-Age={ma}");
                }
                if attrs.site_wide {
                    let _ = write!(raw, "; Domain={}", platform.site_domain());
                }
                if let Some(p) = &attrs.path {
                    let _ = write!(raw, "; Path={p}");
                }
                if attrs.secure {
                    raw.push_str("; Secure");
                }
                platform.document_cookie_set(at, &raw);
            }
            ScriptOp::CookieStoreSet {
                name,
                value,
                expires_in_ms,
            } => {
                let v = value.generate(wall, rng);
                let abs = expires_in_ms.map(|rel| wall + rel);
                platform.cookie_store_set(at, name, &v, abs);
            }
            ScriptOp::ReadAllCookies => {
                let _ = platform.document_cookie_get(at);
            }
            ScriptOp::CookieStoreGet { name } => {
                let _ = platform.cookie_store_get(at, name);
            }
            ScriptOp::CookieStoreGetAll => {
                let _ = platform.cookie_store_get_all(at);
            }
            ScriptOp::OverwriteCookie {
                target,
                value,
                changes,
                blind,
            } => {
                let jar = parse_pairs(&platform.document_cookie_get(at));
                let existing = jar
                    .iter()
                    .find(|(n, _)| n == target)
                    .map(|(_, v)| v.clone());
                if existing.is_none() && !blind {
                    return;
                }
                let new_value = if changes.value {
                    value.generate(wall, rng)
                } else {
                    existing.unwrap_or_else(|| value.generate(wall, rng))
                };
                let mut raw = format!("{target}={new_value}");
                if changes.expires {
                    raw.push_str("; Max-Age=31536000");
                }
                if changes.domain {
                    let _ = write!(raw, "; Domain={}", platform.site_domain());
                }
                if changes.path {
                    raw.push_str("; Path=/");
                }
                platform.document_cookie_set(at, &raw);
            }
            ScriptOp::DeleteCookie { target, via_store } => {
                if *via_store {
                    platform.cookie_store_delete(at, target);
                } else {
                    platform.document_cookie_set(at, &format!("{target}=; Max-Age=0"));
                }
            }
            ScriptOp::Exfiltrate {
                dest_host,
                path,
                selection,
                segment,
                encoding,
                kind,
                via_store,
            } => {
                let pairs = if *via_store {
                    platform.cookie_store_get_all(at)
                } else {
                    parse_pairs(&platform.document_cookie_get(at))
                };
                let selected: Vec<(String, String)> = match selection {
                    CookieSelection::All => pairs,
                    CookieSelection::Named(names) => pairs
                        .into_iter()
                        .filter(|(n, _)| names.contains(n))
                        .collect(),
                    CookieSelection::Sample(pct) => {
                        let p = f64::from(*pct).clamp(0.0, 100.0) / 100.0;
                        pairs.into_iter().filter(|_| rng.gen_bool(p)).collect()
                    }
                };
                if selected.is_empty() {
                    return;
                }
                let mut query = String::new();
                for (name, value) in &selected {
                    let taken = match segment {
                        SegmentPolicy::Full => value.clone(),
                        SegmentPolicy::LongestSegment => segments(value)
                            .max_by_key(|s| s.len())
                            .map(str::to_string)
                            .unwrap_or_else(|| value.clone()),
                    };
                    let encoded = encode_value(&taken, *encoding);
                    if !query.is_empty() {
                        query.push('&');
                    }
                    let _ = write!(query, "{}={}", name, percent_encode(&encoded));
                }
                // A short request nonce, never colliding with cookie
                // identifier segments (those are ≥8 chars).
                let nonce: u32 = rng.gen_range(0x1000..0xFFFF);
                let url = format!("https://{dest_host}{path}?r={nonce:04x}&{query}");
                platform.send_request(at, &url, *kind);
            }
            ScriptOp::SendRequest {
                dest_host,
                path,
                kind,
            } => {
                let url = format!("https://{dest_host}{path}");
                platform.send_request(at, &url, *kind);
            }
            ScriptOp::InjectScript { url } => {
                if let Some(exec) = platform.resolve_injected_script(at, url) {
                    stats.scripts_injected += 1;
                    self.push_task(Task {
                        at_ms: self.now_ms,
                        seq: 0,
                        stack: vec![StackFrame {
                            script_id: exec.script_id,
                            url: exec.url,
                        }],
                        async_lost: false,
                        ops: exec.ops,
                    });
                }
            }
            ScriptOp::DomInsert { tag } => platform.dom_insert(at, tag),
            ScriptOp::DomMutate {
                kind,
                foreign_target,
            } => platform.dom_mutate(at, *kind, *foreign_target),
            ScriptOp::Defer {
                delay_ms,
                ops,
                lose_attribution,
            } => {
                let (stack, lost) = if *lose_attribution {
                    (Vec::new(), true)
                } else {
                    (stack.to_vec(), async_lost)
                };
                self.push_task(Task {
                    at_ms: self.now_ms + delay_ms,
                    seq: 0,
                    stack,
                    async_lost: lost,
                    ops,
                });
            }
            ScriptOp::Microtask { ops } => {
                self.microtasks.push_back(Task {
                    at_ms: self.now_ms,
                    seq: 0,
                    stack: stack.to_vec(),
                    async_lost,
                    ops,
                });
            }
            ScriptOp::IfCookieVisible {
                cookie,
                then_ops,
                else_ops,
            } => {
                let pairs = parse_pairs(&platform.document_cookie_get(at));
                let visible = pairs.iter().any(|(n, _)| n == cookie);
                let branch = if visible { then_ops } else { else_ops };
                if !branch.is_empty() {
                    self.microtasks.push_back(Task {
                        at_ms: self.now_ms,
                        seq: 0,
                        stack: stack.to_vec(),
                        async_lost,
                        ops: branch,
                    });
                }
            }
            ScriptOp::CopyCookie {
                from,
                to,
                max_age_s,
                site_wide,
            } => {
                let pairs = parse_pairs(&platform.document_cookie_get(at));
                let Some((_, value)) = pairs.into_iter().find(|(n, _)| n == from) else {
                    return; // source invisible: the sync chain is cut here
                };
                let mut raw = format!("{to}={value}");
                if let Some(ma) = max_age_s {
                    let _ = write!(raw, "; Max-Age={ma}");
                }
                if *site_wide {
                    let _ = write!(raw, "; Domain={}", platform.site_domain());
                }
                platform.document_cookie_set(at, &raw);
            }
            ScriptOp::Probe { feature, cookie } => {
                let pairs = parse_pairs(&platform.document_cookie_get(at));
                let ok = pairs.iter().any(|(n, _)| n == cookie);
                platform.probe_result(at, feature, cookie, ok);
            }
            ScriptOp::OnCookieChange {
                watch,
                deletions_only,
                ops,
            } => {
                self.listeners.push(ChangeListener {
                    stack: stack.to_vec(),
                    async_lost,
                    watch: watch.as_deref(),
                    deletions_only: *deletions_only,
                    ops,
                });
            }
        }
    }
}

/// Parses a `document.cookie` string into pairs.
pub fn parse_pairs(s: &str) -> Vec<(String, String)> {
    s.split(';')
        .filter_map(|chunk| {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                return None;
            }
            match chunk.split_once('=') {
                Some((n, v)) => Some((n.trim().to_string(), v.trim().to_string())),
                None => Some((String::new(), chunk.to_string())),
            }
        })
        .collect()
}

fn encode_value(value: &str, encoding: Encoding) -> String {
    match encoding {
        Encoding::Plain => value.to_string(),
        Encoding::Base64 => cg_hash::b64encode_no_pad(value.as_bytes()),
        Encoding::Md5 => cg_hash::md5_hex(value.as_bytes()),
        Encoding::Sha1 => cg_hash::sha1_hex(value.as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{AttrChanges, CookieAttrs, DomMutationKind};
    use crate::value::ValueSpec;
    use cg_http::RequestKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    use crate::platform::CookieChangeNotice;

    /// A minimal in-memory platform for engine tests.
    #[derive(Default)]
    struct MockPlatform {
        cookies: HashMap<String, String>,
        log: Vec<String>,
        injectable: HashMap<String, ScriptExecution<'static>>,
        changes: Vec<CookieChangeNotice>,
        /// (observer domain, cookie name) pairs whose changes are hidden.
        invisible: Vec<(String, String)>,
    }

    impl Platform<'static> for MockPlatform {
        fn site_domain(&self) -> &str {
            "site.com"
        }
        fn document_cookie_get(&mut self, at: &Attribution) -> String {
            self.log.push(format!("get by {:?}", at.script_domain()));
            let mut pairs: Vec<_> = self.cookies.iter().collect();
            pairs.sort();
            pairs
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join("; ")
        }
        fn document_cookie_set(&mut self, at: &Attribution, raw: &str) -> bool {
            self.log
                .push(format!("set {raw} by {:?}", at.script_domain()));
            let pair = raw.split(';').next().unwrap();
            let (n, v) = pair.split_once('=').unwrap();
            let deleted = raw.contains("Max-Age=0");
            if deleted {
                self.cookies.remove(n);
            } else {
                self.cookies.insert(n.trim().into(), v.trim().into());
            }
            self.changes.push(CookieChangeNotice {
                name: n.trim().into(),
                deleted,
            });
            true
        }
        fn cookie_store_get(&mut self, _at: &Attribution, name: &str) -> Option<String> {
            self.cookies.get(name).cloned()
        }
        fn cookie_store_get_all(&mut self, _at: &Attribution) -> Vec<(String, String)> {
            let mut v: Vec<_> = self
                .cookies
                .iter()
                .map(|(a, b)| (a.clone(), b.clone()))
                .collect();
            v.sort();
            v
        }
        fn cookie_store_set(
            &mut self,
            _at: &Attribution,
            name: &str,
            value: &str,
            _e: Option<i64>,
        ) -> bool {
            self.cookies.insert(name.into(), value.into());
            true
        }
        fn cookie_store_delete(&mut self, _at: &Attribution, name: &str) -> bool {
            let removed = self.cookies.remove(name).is_some();
            if removed {
                self.changes.push(CookieChangeNotice {
                    name: name.into(),
                    deleted: true,
                });
            }
            removed
        }
        fn send_request(&mut self, at: &Attribution, url: &str, _kind: RequestKind) {
            self.log
                .push(format!("req {url} by {:?}", at.script_domain()));
        }
        fn resolve_injected_script(
            &mut self,
            _at: &Attribution,
            url: &str,
        ) -> Option<ScriptExecution<'static>> {
            self.injectable.get(url).cloned()
        }
        fn dom_insert(&mut self, _at: &Attribution, tag: &str) {
            self.log.push(format!("dom_insert {tag}"));
        }
        fn dom_mutate(&mut self, _at: &Attribution, _kind: DomMutationKind, foreign: bool) {
            self.log.push(format!("dom_mutate foreign={foreign}"));
        }
        fn probe_result(&mut self, _at: &Attribution, feature: &str, cookie: &str, ok: bool) {
            self.log.push(format!("probe {feature}/{cookie}={ok}"));
        }
        fn drain_cookie_changes(&mut self) -> Vec<CookieChangeNotice> {
            std::mem::take(&mut self.changes)
        }
        fn cookie_change_visible(&mut self, at: &Attribution, name: &str) -> bool {
            let observer = at.script_domain().unwrap_or_default();
            !self
                .invisible
                .iter()
                .any(|(o, n)| o == &observer && n == name)
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// An external script running `ops`. The program is leaked so a
    /// test can build it inline and hand it to a loop of any lifetime.
    fn exec(id: usize, url: &str, ops: Vec<ScriptOp>) -> ScriptExecution<'static> {
        ScriptExecution {
            script_id: id,
            url: Some(Arc::new(Url::parse(url).unwrap())),
            ops: ops.leak(),
        }
    }

    #[test]
    fn set_and_read_cookie() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(1_750_000_000_000);
        el.push_script(
            exec(
                0,
                "https://ga.com/a.js",
                vec![
                    ScriptOp::SetCookie {
                        name: "_ga".into(),
                        value: ValueSpec::GaStyle,
                        attrs: CookieAttrs::default(),
                    },
                    ScriptOp::ReadAllCookies,
                ],
            ),
            0,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.ops_run, 2);
        assert!(p.cookies.contains_key("_ga"));
        assert!(p.cookies["_ga"].starts_with("GA1.1."));
    }

    #[test]
    fn exfiltrate_selected_cookie_segment_base64() {
        let mut p = MockPlatform::default();
        p.cookies
            .insert("_ga".into(), "GA1.1.444332364.1746838827".into());
        p.cookies.insert("other".into(), "zzz".into());
        let mut el = EventLoop::new(1_750_000_000_000);
        el.push_script(
            exec(
                0,
                "https://licdn.com/insight.min.js",
                vec![ScriptOp::Exfiltrate {
                    dest_host: "px.ads.linkedin.com".into(),
                    path: "/attribution_trigger".into(),
                    selection: CookieSelection::Named(vec!["_ga".into()]),
                    segment: SegmentPolicy::LongestSegment,
                    encoding: Encoding::Base64,
                    kind: RequestKind::Image,
                    via_store: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        let req = p.log.iter().find(|l| l.starts_with("req ")).unwrap();
        // longest segment is the 10-digit timestamp 1746838827
        assert!(
            req.contains(&cg_hash::b64encode_no_pad(b"1746838827")),
            "{req}"
        );
        assert!(req.contains("px.ads.linkedin.com"));
        assert!(!req.contains("zzz"));
    }

    #[test]
    fn overwrite_aborts_when_target_missing_and_not_blind() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://pubmatic.com/p.js",
                vec![ScriptOp::OverwriteCookie {
                    target: "cto_bundle".into(),
                    value: ValueSpec::HexId(64),
                    changes: AttrChanges::value_and_expiry(),
                    blind: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(!p.cookies.contains_key("cto_bundle"));
        // blind overwrite writes anyway
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://pubmatic.com/p.js",
                vec![ScriptOp::OverwriteCookie {
                    target: "cto_bundle".into(),
                    value: ValueSpec::HexId(64),
                    changes: AttrChanges::value_and_expiry(),
                    blind: true,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(p.cookies.contains_key("cto_bundle"));
    }

    #[test]
    fn delete_via_document_cookie() {
        let mut p = MockPlatform::default();
        p.cookies.insert("_fbp".into(), "fb.1.1.2".into());
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://cookie-script.com/consent.js",
                vec![ScriptOp::DeleteCookie {
                    target: "_fbp".into(),
                    via_store: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(!p.cookies.contains_key("_fbp"));
    }

    #[test]
    fn injected_script_runs_with_own_stack() {
        let mut p = MockPlatform::default();
        p.injectable.insert(
            "https://ga.com/analytics.js".into(),
            exec(
                1,
                "https://ga.com/analytics.js",
                vec![ScriptOp::SetCookie {
                    name: "_ga".into(),
                    value: ValueSpec::GaStyle,
                    attrs: CookieAttrs::default(),
                }],
            ),
        );
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://gtm.com/gtm.js",
                vec![ScriptOp::InjectScript {
                    url: "https://ga.com/analytics.js".into(),
                }],
            ),
            0,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.scripts_injected, 1);
        // The set was attributed to ga.com, not gtm.com.
        assert!(p
            .log
            .iter()
            .any(|l| l.starts_with("set _ga=") && l.contains("ga.com")));
    }

    #[test]
    fn defer_with_lost_attribution() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://t.com/t.js",
                vec![ScriptOp::Defer {
                    delay_ms: 250,
                    ops: vec![ScriptOp::SetCookie {
                        name: "late".into(),
                        value: ValueSpec::Short,
                        attrs: CookieAttrs::default(),
                    }],
                    lose_attribution: true,
                }],
            ),
            0,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.finished_at_ms, 250);
        assert!(p
            .log
            .iter()
            .any(|l| l.starts_with("set late=") && l.contains("None")));
    }

    #[test]
    fn defer_preserving_attribution() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://t.com/t.js",
                vec![ScriptOp::Defer {
                    delay_ms: 10,
                    ops: vec![ScriptOp::ReadAllCookies],
                    lose_attribution: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(p
            .log
            .iter()
            .any(|l| l.starts_with("get by Some") && l.contains("t.com")));
    }

    #[test]
    fn microtasks_run_before_next_macrotask() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://a.com/a.js",
                vec![
                    ScriptOp::Defer {
                        delay_ms: 0,
                        ops: vec![ScriptOp::DomInsert {
                            tag: "macro".into(),
                        }],
                        lose_attribution: false,
                    },
                    ScriptOp::Microtask {
                        ops: vec![ScriptOp::DomInsert {
                            tag: "micro".into(),
                        }],
                    },
                ],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        let micro = p.log.iter().position(|l| l == "dom_insert micro").unwrap();
        let macro_ = p.log.iter().position(|l| l == "dom_insert macro").unwrap();
        assert!(micro < macro_);
    }

    #[test]
    fn tasks_ordered_by_time_then_fifo() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://b.com/1.js",
                vec![ScriptOp::DomInsert {
                    tag: "second".into(),
                }],
            ),
            20,
        );
        el.push_script(
            exec(
                1,
                "https://a.com/2.js",
                vec![ScriptOp::DomInsert {
                    tag: "first".into(),
                }],
            ),
            10,
        );
        el.run(&mut p, &mut rng());
        assert_eq!(p.log, vec!["dom_insert first", "dom_insert second"]);
    }

    #[test]
    fn op_budget_truncates_runaway() {
        let mut p = MockPlatform::default();
        // A self-reinjecting script would loop forever; budget stops it.
        p.injectable.insert(
            "https://loop.com/l.js".into(),
            exec(
                1,
                "https://loop.com/l.js",
                vec![ScriptOp::InjectScript {
                    url: "https://loop.com/l.js".into(),
                }],
            ),
        );
        let mut el = EventLoop::new(0).with_max_ops(100);
        el.push_script(
            exec(
                0,
                "https://loop.com/l.js",
                vec![ScriptOp::InjectScript {
                    url: "https://loop.com/l.js".into(),
                }],
            ),
            0,
        );
        let stats = el.run(&mut p, &mut rng());
        assert!(stats.truncated);
        assert!(stats.ops_run <= 100);
    }

    #[test]
    fn probe_reports_cookie_visibility() {
        let mut p = MockPlatform::default();
        p.cookies.insert("sso_session".into(), "tok".into());
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://idp.com/sso.js",
                vec![
                    ScriptOp::Probe {
                        feature: "sso".into(),
                        cookie: "sso_session".into(),
                    },
                    ScriptOp::Probe {
                        feature: "cart".into(),
                        cookie: "cart_id".into(),
                    },
                ],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(p.log.contains(&"probe sso/sso_session=true".to_string()));
        assert!(p.log.contains(&"probe cart/cart_id=false".to_string()));
    }

    #[test]
    fn if_cookie_visible_branches_and_keeps_attribution() {
        let mut p = MockPlatform::default();
        p.cookies
            .insert("OptanonConsent".into(), "groups=C2".into());
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://tracker.com/t.js",
                vec![ScriptOp::IfCookieVisible {
                    cookie: "OptanonConsent".into(),
                    then_ops: vec![ScriptOp::SetCookie {
                        name: "_tid".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    }],
                    else_ops: vec![ScriptOp::DomInsert {
                        tag: "no-consent".into(),
                    }],
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(p.cookies.contains_key("_tid"));
        assert!(!p.log.contains(&"dom_insert no-consent".to_string()));
        // The branch ran under the tracker's identity, not inline.
        assert!(p
            .log
            .iter()
            .any(|l| l.starts_with("set _tid=") && l.contains("tracker.com")));

        // Gate absent: the else branch runs instead.
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://tracker.com/t.js",
                vec![ScriptOp::IfCookieVisible {
                    cookie: "OptanonConsent".into(),
                    then_ops: vec![ScriptOp::SetCookie {
                        name: "_tid".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    }],
                    else_ops: vec![ScriptOp::DomInsert {
                        tag: "no-consent".into(),
                    }],
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(!p.cookies.contains_key("_tid"));
        assert!(p.log.contains(&"dom_insert no-consent".to_string()));
    }

    #[test]
    fn copy_cookie_syncs_value_under_new_name() {
        let mut p = MockPlatform::default();
        p.cookies
            .insert("_ga".into(), "GA1.1.444332364.1746838827".into());
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://partner.com/sync.js",
                vec![ScriptOp::CopyCookie {
                    from: "_ga".into(),
                    to: "_partner_uid".into(),
                    max_age_s: Some(86_400),
                    site_wide: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert_eq!(
            p.cookies.get("_partner_uid").map(String::as_str),
            Some("GA1.1.444332364.1746838827")
        );
    }

    #[test]
    fn copy_cookie_is_noop_when_source_invisible() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://partner.com/sync.js",
                vec![ScriptOp::CopyCookie {
                    from: "_ga".into(),
                    to: "_partner_uid".into(),
                    max_age_s: None,
                    site_wide: false,
                }],
            ),
            0,
        );
        el.run(&mut p, &mut rng());
        assert!(!p.cookies.contains_key("_partner_uid"));
    }

    #[test]
    fn parse_pairs_handles_variants() {
        assert_eq!(parse_pairs(""), vec![]);
        assert_eq!(
            parse_pairs("a=1; b=2"),
            vec![("a".into(), "1".into()), ("b".into(), "2".into())]
        );
        assert_eq!(parse_pairs("lone"), vec![("".into(), "lone".into())]);
    }

    // ------------------------------------------------------------------
    // CookieStore change events
    // ------------------------------------------------------------------

    #[test]
    fn respawner_reinstates_deleted_cookie() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        // The tracker sets its identifier and watches for its deletion.
        el.push_script(
            exec(
                0,
                "https://tracker.com/t.js",
                vec![
                    ScriptOp::SetCookie {
                        name: "_tid".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    },
                    ScriptOp::OnCookieChange {
                        watch: Some("_tid".into()),
                        deletions_only: true,
                        ops: vec![ScriptOp::SetCookie {
                            name: "_tid".into(),
                            value: ValueSpec::HexId(16),
                            attrs: CookieAttrs::default(),
                        }],
                    },
                ],
            ),
            0,
        );
        // A consent manager deletes the identifier later.
        el.push_script(
            exec(
                1,
                "https://consent.io/c.js",
                vec![ScriptOp::DeleteCookie {
                    target: "_tid".into(),
                    via_store: false,
                }],
            ),
            100,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.change_events_fired, 1);
        // The respawner put the cookie back.
        assert!(p.cookies.contains_key("_tid"));
        // The respawn was attributed to the tracker (its stack survived).
        assert!(p
            .log
            .iter()
            .rev()
            .find(|l| l.starts_with("set _tid="))
            .unwrap()
            .contains("tracker.com"));
    }

    #[test]
    fn respawn_does_not_loop_on_its_own_set() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://tracker.com/t.js",
                vec![
                    ScriptOp::SetCookie {
                        name: "_tid".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    },
                    ScriptOp::OnCookieChange {
                        watch: Some("_tid".into()),
                        deletions_only: true,
                        ops: vec![ScriptOp::SetCookie {
                            name: "_tid".into(),
                            value: ValueSpec::HexId(16),
                            attrs: CookieAttrs::default(),
                        }],
                    },
                ],
            ),
            0,
        );
        el.push_script(
            exec(
                1,
                "https://consent.io/c.js",
                vec![ScriptOp::DeleteCookie {
                    target: "_tid".into(),
                    via_store: false,
                }],
            ),
            50,
        );
        let stats = el.run(&mut p, &mut rng());
        // One deletion → one event; the respawn's own Created change does
        // not re-trigger the deletions-only listener.
        assert_eq!(stats.change_events_fired, 1);
        assert!(!stats.truncated);
    }

    #[test]
    fn change_visibility_filter_blocks_foreign_observers() {
        let mut p = MockPlatform::default();
        // spy.com may not observe changes to "_secret".
        p.invisible.push(("spy.com".into(), "_secret".into()));
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://spy.com/s.js",
                vec![ScriptOp::OnCookieChange {
                    watch: None,
                    deletions_only: false,
                    ops: vec![ScriptOp::DomInsert {
                        tag: "observed".into(),
                    }],
                }],
            ),
            0,
        );
        el.push_script(
            exec(
                1,
                "https://owner.com/o.js",
                vec![
                    ScriptOp::SetCookie {
                        name: "_secret".into(),
                        value: ValueSpec::Short,
                        attrs: CookieAttrs::default(),
                    },
                    ScriptOp::SetCookie {
                        name: "_open".into(),
                        value: ValueSpec::Short,
                        attrs: CookieAttrs::default(),
                    },
                ],
            ),
            10,
        );
        let stats = el.run(&mut p, &mut rng());
        // Only the _open change was delivered.
        assert_eq!(stats.change_events_fired, 1);
        assert_eq!(
            p.log.iter().filter(|l| *l == "dom_insert observed").count(),
            1
        );
    }

    #[test]
    fn watch_and_deletions_only_filters() {
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://w.com/w.js",
                vec![ScriptOp::OnCookieChange {
                    watch: Some("a".into()),
                    deletions_only: true,
                    ops: vec![ScriptOp::DomInsert {
                        tag: "fired".into(),
                    }],
                }],
            ),
            0,
        );
        el.push_script(
            exec(
                1,
                "https://x.com/x.js",
                vec![
                    // Non-watched name: ignored.
                    ScriptOp::SetCookie {
                        name: "b".into(),
                        value: ValueSpec::Short,
                        attrs: CookieAttrs::default(),
                    },
                    // Watched name, but a creation: ignored (deletions only).
                    ScriptOp::SetCookie {
                        name: "a".into(),
                        value: ValueSpec::Short,
                        attrs: CookieAttrs::default(),
                    },
                    // Watched deletion: fires.
                    ScriptOp::DeleteCookie {
                        target: "a".into(),
                        via_store: false,
                    },
                ],
            ),
            10,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.change_events_fired, 1);
    }

    #[test]
    fn store_delete_also_feeds_change_events() {
        let mut p = MockPlatform::default();
        p.cookies.insert("k".into(), "v".into());
        let mut el = EventLoop::new(0);
        el.push_script(
            exec(
                0,
                "https://w.com/w.js",
                vec![ScriptOp::OnCookieChange {
                    watch: Some("k".into()),
                    deletions_only: true,
                    ops: vec![ScriptOp::DomInsert { tag: "gone".into() }],
                }],
            ),
            0,
        );
        el.push_script(
            exec(
                1,
                "https://x.com/x.js",
                vec![ScriptOp::DeleteCookie {
                    target: "k".into(),
                    via_store: true,
                }],
            ),
            10,
        );
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.change_events_fired, 1);
        assert!(p.log.contains(&"dom_insert gone".to_string()));
    }

    #[test]
    fn changes_before_the_first_listener_are_dropped_unheard() {
        // The first task's write happens while nobody listens: its
        // change is discarded, so the listener registered later hears
        // only the write made after it.
        let mut p = MockPlatform::default();
        let mut el = EventLoop::new(0);
        let set = |name: &str| ScriptOp::SetCookie {
            name: name.into(),
            value: ValueSpec::HexId(8),
            attrs: CookieAttrs::default(),
        };
        el.push_script(exec(0, "https://a.com/a.js", vec![set("early")]), 0);
        el.push_script(
            exec(
                1,
                "https://w.com/w.js",
                vec![ScriptOp::OnCookieChange {
                    watch: None,
                    deletions_only: false,
                    ops: vec![ScriptOp::DomInsert {
                        tag: "heard".into(),
                    }],
                }],
            ),
            10,
        );
        el.push_script(exec(2, "https://b.com/b.js", vec![set("late")]), 20);
        let stats = el.run(&mut p, &mut rng());
        assert_eq!(stats.change_events_fired, 1);
        assert!(
            p.changes.is_empty(),
            "every change was drained or discarded"
        );
    }
}
