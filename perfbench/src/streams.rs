//! Seeded op streams for the three workloads.
//!
//! Every stream is *stationary*: the op mix is a fixed repeating pattern,
//! walks reflect inside a fixed box, and every step is a multiple of a
//! power-of-two grid step, so a revisited window lowers to bit-identical
//! SQL and can hit caches. Per-op cost then does not depend on how long a
//! run lasts. The seed picks step sizes, directions, jump targets,
//! revisit targets and query literals, never the shape of the stream.

use crate::rng::Rng;
use std::collections::VecDeque;

/// Grid step of the sky walk, in degrees (a power of two, so every window
/// bound is exactly representable).
pub const SKY_STEP: f64 = 0.25;

/// Window centres stay inside this box (grid units of [`SKY_STEP`]):
/// ra 176..196 and dec -3..4, which holds the two Figure 1 clusters and
/// the sparse sky beside them. Rows are stored in ra order, so a window
/// whose ra range crosses a cluster scans that cluster's rows whatever its
/// dec; about a third of the box's ra range does.
pub const RA_BOX: (i64, i64) = (704, 784);
/// See [`RA_BOX`].
pub const DEC_BOX: (i64, i64) = (-12, 16);
/// Half-widths a window may take, in grid units: 0.25°, 0.5° and 1°
/// (windows 0.5°, 1° and 2° wide).
pub const HALF_WIDTHS: [i64; 3] = [1, 2, 4];

/// Earlier windows kept per anchor for revisits (16 anchors × 64 = 1024
/// windows, more than the session's 256-entry result cache, so some
/// revisits hit and some miss).
pub const REVISIT_POOL: usize = 64;

/// A square sky window in grid units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Centre ra, in grid units.
    pub cx: i64,
    /// Centre dec, in grid units.
    pub cy: i64,
    /// Half-width, in grid units (one of [`HALF_WIDTHS`]).
    pub h: i64,
}

impl Window {
    /// The first Figure 1 window: ra 178.5..180.5, dec -1.5..0.5.
    pub const DEMO: Window = Window { cx: 718, cy: -2, h: 4 };

    /// `(low, high)` ra bounds in degrees.
    pub fn ra(&self) -> (f64, f64) {
        ((self.cx - self.h) as f64 * SKY_STEP, (self.cx + self.h) as f64 * SKY_STEP)
    }

    /// `(low, high)` dec bounds in degrees.
    pub fn dec(&self) -> (f64, f64) {
        ((self.cy - self.h) as f64 * SKY_STEP, (self.cy + self.h) as f64 * SKY_STEP)
    }

    /// Whether the centre lies in the walk box and the width is allowed.
    pub fn in_box(&self) -> bool {
        (RA_BOX.0..=RA_BOX.1).contains(&self.cx)
            && (DEC_BOX.0..=DEC_BOX.1).contains(&self.cy)
            && HALF_WIDTHS.contains(&self.h)
    }

    /// The window after `gesture`, exactly as the session applies it.
    pub fn apply(&self, gesture: Gesture) -> Window {
        match gesture {
            Gesture::Pan { dx, dy } => Window { cx: self.cx + dx, cy: self.cy + dy, h: self.h },
            Gesture::Zoom { zoom_in: true } => Window { h: self.h / 2, ..*self },
            Gesture::Zoom { zoom_in: false } => Window { h: self.h * 2, ..*self },
        }
    }
}

/// One pan/zoom gesture in grid units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gesture {
    /// Pan by `(dx, dy)` grid steps.
    Pan {
        /// ra steps.
        dx: i64,
        /// dec steps.
        dy: i64,
    },
    /// Halve (`zoom_in`) or double the window.
    Zoom {
        /// Whether the window shrinks.
        zoom_in: bool,
    },
}

impl Gesture {
    /// Pan distance in degrees, or the zoom factor the session expects.
    pub fn pan_degrees(&self) -> Option<(f64, f64)> {
        match *self {
            Gesture::Pan { dx, dy } => Some((dx as f64 * SKY_STEP, dy as f64 * SKY_STEP)),
            Gesture::Zoom { .. } => None,
        }
    }

    /// The session's zoom factor (`< 1` zooms in), for zoom gestures.
    pub fn zoom_factor(&self) -> Option<f64> {
        match *self {
            Gesture::Zoom { zoom_in } => Some(if zoom_in { 0.5 } else { 2.0 }),
            Gesture::Pan { .. } => None,
        }
    }
}

/// Reflect a step that would leave `[lo, hi]`.
fn reflect(pos: i64, step: i64, (lo, hi): (i64, i64)) -> i64 {
    if (lo..=hi).contains(&(pos + step)) {
        step
    } else {
        -step
    }
}

/// A local pan from `w`: one grid step along one axis, reflected into
/// `(ra, dec)` bounds. One fixed step size keeps every pan's frame about
/// the same size, so run-to-run work does not hinge on step draws.
fn pan_step(rng: &mut Rng, w: Window, (ra, dec): ((i64, i64), (i64, i64))) -> Gesture {
    let step = if rng.below(2) == 0 { -1 } else { 1 };
    if rng.below(2) == 0 {
        Gesture::Pan { dx: reflect(w.cx, step, ra), dy: 0 }
    } else {
        Gesture::Pan { dx: 0, dy: reflect(w.cy, step, dec) }
    }
}

/// The cells around an anchor (grid units): the border of a 5×5 square,
/// in order. An epoch's pans walk it one grid step at a time from a start
/// that depends only on the round number, so every run covers the same
/// sky at the same widths (a seeded start changed which moves happen at
/// 2° width, and the in-cluster frame bytes with it, by up to 30% between
/// seeds).
pub const RING: [(i64, i64); 16] = [
    (2, 0),
    (2, 1),
    (2, 2),
    (1, 2),
    (0, 2),
    (-1, 2),
    (-2, 2),
    (-2, 1),
    (-2, 0),
    (-2, -1),
    (-2, -2),
    (-1, -2),
    (0, -2),
    (1, -2),
    (2, -2),
    (2, -1),
];

/// Ring cells the start advances per round. It divides the ring length,
/// so the ring starts repeat every [`RING_PERIOD`] rounds and every
/// period does the same work: with a start that visited every cell
/// (three cells on, a 16-round period), per-round CPU rose and fell by
/// up to 45% with the start, and a run's median depended on how many
/// rounds the host's speed let it finish.
pub const RING_ADVANCE: usize = 4;

/// Rounds after which the ring starts repeat.
pub const RING_PERIOD: u64 = (RING.len() / RING_ADVANCE) as u64;

/// A zoom step from `w` that keeps the width in [`HALF_WIDTHS`].
fn zoom_step(rng: &mut Rng, w: Window) -> Gesture {
    let zoom_in = match w.h {
        h if h == HALF_WIDTHS[0] => false,
        h if h == HALF_WIDTHS[HALF_WIDTHS.len() - 1] => true,
        _ => rng.below(2) == 0,
    };
    Gesture::Zoom { zoom_in }
}

/// What kind of move an explore op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExploreKind {
    /// A local pan by a few grid steps.
    Pan,
    /// Halve the window.
    ZoomIn,
    /// Double the window.
    ZoomOut,
    /// A pan back onto a window visited earlier.
    Revisit,
    /// A pan to the next anchor (see [`ANCHORS`]).
    Jump,
}

/// The fixed op pattern of the explore stream. Each 16-op epoch starts
/// with a jump to the next anchor and zooms 2° → 1° → 0.5° → 1° → 2°, so
/// the width of every op is fixed by its place in the epoch. A pan
/// follows every revisit, so zooms always happen on the ring.
pub const EXPLORE_PATTERN: [ExploreKind; 16] = {
    use ExploreKind::*;
    [
        Jump, Pan, Pan, ZoomIn, Pan, Revisit, Pan, ZoomIn, Pan, Revisit, Pan, ZoomOut, Pan,
        Revisit, Pan, ZoomOut,
    ]
};

/// Jump targets (window centres, grid units): sixteen anchors evenly
/// spaced along ra, at four dec rows. A round of jumps visits each once,
/// in a seeded order, so every run samples the box the same way instead
/// of wherever one random walk happened to wander (which made the
/// heavy, in-cluster share of ops, and with it every mean, differ by
/// seed).
pub const ANCHORS: [(i64, i64); 16] = {
    let mut anchors = [(0, 0); 16];
    let dec = [-8, -2, 4, 10];
    let mut i = 0;
    while i < 16 {
        anchors[i] = (RA_BOX.0 + 2 + 5 * i as i64, dec[i % 4]);
        i += 1;
    }
    anchors
};

/// One explore op: the move and the window it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOp {
    /// The kind of move (what the pattern asked for; a revisit with no
    /// earlier window of the current width falls back to a pan and is
    /// reported as one).
    pub kind: ExploreKind,
    /// The gesture to dispatch.
    pub gesture: Gesture,
    /// The window after the gesture.
    pub window: Window,
}

/// The explore op stream: one analyst panning and zooming Figure 1.
#[derive(Debug, Clone)]
pub struct ExploreStream {
    rng: Rng,
    current: Window,
    /// Windows visited in each anchor's epochs, newest last, capped at
    /// [`REVISIT_POOL`] each. An epoch's pans reflect inside its anchor's
    /// box and its revisits return to that anchor's windows, so every
    /// round samples the same parts of the sky.
    pools: Vec<VecDeque<Window>>,
    /// The anchor of the current epoch.
    anchor: usize,
    /// Pans so far in the current epoch.
    ring_step: usize,
    /// Jumps so far (the round number is `jumps / ANCHORS.len()`).
    jumps: usize,
    round: Vec<usize>,
    index: u64,
}

impl ExploreStream {
    /// The stream for `seed`, starting at the Figure 1 window.
    pub fn new(seed: u64) -> Self {
        ExploreStream {
            rng: Rng::new(seed, 1),
            ring_step: 0,
            jumps: 0,
            current: Window::DEMO,
            pools: vec![VecDeque::with_capacity(REVISIT_POOL); ANCHORS.len()],
            anchor: 0,
            round: Vec::new(),
            index: 0,
        }
    }

    fn jump(&mut self) -> Gesture {
        if self.round.is_empty() {
            self.round = self.rng.permutation(ANCHORS.len());
        }
        self.anchor = self.round.pop().unwrap_or(0);
        // Each round starts the ring four cells further on, so widths and
        // cells pair up differently and a round is not a replay of the
        // last one (one cell on answered 73% of ops from the result cache).
        self.ring_step = self.jumps / ANCHORS.len() * RING_ADVANCE;
        self.jumps += 1;
        let (tx, ty) = ANCHORS[self.anchor];
        let tx = if (tx, ty) == (self.current.cx, self.current.cy) { tx + 1 } else { tx };
        Gesture::Pan { dx: tx - self.current.cx, dy: ty - self.current.cy }
    }

    /// A pan to the next ring cell of the current anchor.
    fn ring_pan(&mut self) -> Gesture {
        let (ax, ay) = ANCHORS[self.anchor];
        loop {
            let k = self.ring_step % RING.len();
            self.ring_step += 1;
            let (tx, ty) = (ax + RING[k].0, ay + RING[k].1);
            if (tx, ty) != (self.current.cx, self.current.cy) {
                return Gesture::Pan { dx: tx - self.current.cx, dy: ty - self.current.cy };
            }
        }
    }

    fn revisit(&mut self) -> Option<Gesture> {
        let current = self.current;
        let candidates: Vec<Window> = self.pools[self.anchor]
            .iter()
            .copied()
            .filter(|w| w.h == current.h && (w.cx, w.cy) != (current.cx, current.cy))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let target = candidates[self.rng.below(candidates.len() as u64) as usize];
        Some(Gesture::Pan { dx: target.cx - current.cx, dy: target.cy - current.cy })
    }
}

impl Iterator for ExploreStream {
    type Item = ExploreOp;

    fn next(&mut self) -> Option<ExploreOp> {
        let planned = EXPLORE_PATTERN[(self.index % EXPLORE_PATTERN.len() as u64) as usize];
        self.index += 1;
        let (kind, gesture) = match planned {
            ExploreKind::Jump => (ExploreKind::Jump, self.jump()),
            ExploreKind::ZoomIn => (planned, Gesture::Zoom { zoom_in: true }),
            ExploreKind::ZoomOut => (planned, Gesture::Zoom { zoom_in: false }),
            ExploreKind::Revisit => match self.revisit() {
                Some(g) => (ExploreKind::Revisit, g),
                None => (ExploreKind::Pan, self.ring_pan()),
            },
            ExploreKind::Pan => (ExploreKind::Pan, self.ring_pan()),
        };
        self.current = self.current.apply(gesture);
        let pool = &mut self.pools[self.anchor];
        if pool.len() == REVISIT_POOL {
            pool.pop_front();
        }
        pool.push_back(self.current);
        Some(ExploreOp { kind, gesture, window: self.current })
    }
}

// ---- generate ---------------------------------------------------------------

/// The datasets notebook episodes draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// COVID-19 daily cases (default size).
    Covid,
    /// S&P 500 daily prices (default size).
    Sp500,
    /// SDSS photometric catalog (see [`GENERATE_SDSS_ROWS`]).
    Sdss,
}

/// SDSS size for notebook episodes: the dataset's default 5,000 rows. A
/// 3-query SDSS episode then takes about as long as the covid and sp500
/// episodes together, so the data-size path is half the workload.
pub const GENERATE_SDSS_ROWS: usize = 5_000;

/// Episodes cycle through the datasets in this fixed order.
pub const EPISODE_ORDER: [Dataset; 3] = [Dataset::Covid, Dataset::Sp500, Dataset::Sdss];

/// One notebook episode: the cells an analyst adds one by one, invoking
/// PI2 after each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// Which catalog the cells run against.
    pub dataset: Dataset,
    /// Cell SQL, in order.
    pub cells: Vec<String>,
}

/// `YYYY-MM-DD` for `day` days after 2021-`month`-01.
fn date_after(month: u32, day: i64) -> String {
    let start = pi2_sql::Date::from_ymd(2021, month, 1).expect("valid date");
    pi2_sql::Date(start.0 + day as i32).to_string()
}

/// A value in `lo..=hi` other than `a` (two windows of one log must
/// differ, or there is nothing to interact with).
fn distinct(rng: &mut Rng, a: i64, (lo, hi): (i64, i64)) -> i64 {
    let b = rng.range(lo, hi - 1);
    if b >= a {
        b + 1
    } else {
        b
    }
}

/// A covid episode: overview, two half-month windows, then a per-state
/// drill-down (the walkthrough's log with seeded windows).
fn covid_episode(rng: &mut Rng) -> Episode {
    // The data covers 2021-11-01 + 0..61 days; windows are 15 days long.
    let a = rng.range(0, 45);
    let b = distinct(rng, a, (0, 45));
    let window = |s: i64| (date_after(11, s), date_after(11, s + 15));
    let ((a0, a1), (b0, b1)) = (window(a), window(b));
    Episode {
        dataset: Dataset::Covid,
        cells: vec![
            "SELECT date, sum(cases) AS cases FROM covid GROUP BY date ORDER BY date".into(),
            format!(
                "SELECT date, sum(cases) AS cases FROM covid WHERE date BETWEEN DATE '{a0}' \
                 AND DATE '{a1}' GROUP BY date ORDER BY date"
            ),
            format!(
                "SELECT date, sum(cases) AS cases FROM covid WHERE date BETWEEN DATE '{b0}' \
                 AND DATE '{b1}' GROUP BY date ORDER BY date"
            ),
            format!(
                "SELECT date, state, sum(cases) AS cases FROM covid WHERE date BETWEEN \
                 DATE '{a0}' AND DATE '{a1}' GROUP BY date, state ORDER BY date"
            ),
        ],
    }
}

/// Tickers the sp500 episodes compare.
const TICKERS: [&str; 8] = ["AAPL", "MSFT", "GOOG", "NVDA", "JPM", "XOM", "JNJ", "KO"];

/// An sp500 episode: two tickers' timelines, a date-windowed view, and a
/// sector aggregate over the same window.
fn sp500_episode(rng: &mut Rng) -> Episode {
    let first = rng.below(TICKERS.len() as u64) as usize;
    let second = (first + 1 + rng.below(TICKERS.len() as u64 - 1) as usize) % TICKERS.len();
    let (t1, t2) = (TICKERS[first], TICKERS[second]);
    // Two-month windows inside 2021-07-01..2021-12-31.
    let month = rng.range(7, 11) as u32;
    let from = date_after(month, 0);
    let to = if month == 11 { date_after(12, 30) } else { date_after(month + 2, -1) };
    Episode {
        dataset: Dataset::Sp500,
        cells: vec![
            format!("SELECT date, close FROM prices WHERE ticker = '{t1}' ORDER BY date"),
            format!("SELECT date, close FROM prices WHERE ticker = '{t2}' ORDER BY date"),
            format!(
                "SELECT date, close FROM prices WHERE ticker = '{t1}' AND date BETWEEN \
                 DATE '{from}' AND DATE '{to}' ORDER BY date"
            ),
            format!(
                "SELECT c.sector, avg(p.close) AS avg_close FROM prices p JOIN companies c \
                 ON p.ticker = c.ticker WHERE p.date BETWEEN DATE '{from}' AND DATE '{to}' \
                 GROUP BY c.sector ORDER BY avg_close DESC"
            ),
        ],
    }
}

/// SQL for the Figure 1 region query over `w`.
pub fn region_sql(w: Window) -> String {
    let ((r0, r1), (d0, d1)) = (w.ra(), w.dec());
    format!("SELECT ra, dec FROM photoobj WHERE ra BETWEEN {r0:?} AND {r1:?} AND dec BETWEEN {d0:?} AND {d1:?}")
}

/// A window centred on a Figure 1 cluster, jittered by up to two grid
/// steps, so every episode's result sizes are alike.
fn cluster_window(rng: &mut Rng, (cx, cy): (i64, i64)) -> Window {
    Window { cx: cx + rng.range(-2, 2), cy: cy + rng.range(-2, 2), h: 4 }
}

/// An SDSS episode: the two Figure 1 region queries, then a class filter
/// on the first region.
fn sdss_episode(rng: &mut Rng) -> Episode {
    let a = cluster_window(rng, (718, -2));
    let b = cluster_window(rng, (740, 8));
    let class = rng.pick(&["GALAXY", "STAR", "QSO"]);
    Episode {
        dataset: Dataset::Sdss,
        cells: vec![
            region_sql(a),
            region_sql(b),
            format!("{} AND class = '{class}'", region_sql(a)),
        ],
    }
}

/// The generate op stream: episodes in [`EPISODE_ORDER`], each with
/// seeded literals. One op is one cell of one episode.
#[derive(Debug, Clone)]
pub struct EpisodeStream {
    rng: Rng,
    index: usize,
}

impl EpisodeStream {
    /// The episode stream for `seed`.
    pub fn new(seed: u64) -> Self {
        EpisodeStream { rng: Rng::new(seed, 2), index: 0 }
    }
}

impl Iterator for EpisodeStream {
    type Item = Episode;

    fn next(&mut self) -> Option<Episode> {
        let dataset = EPISODE_ORDER[self.index % EPISODE_ORDER.len()];
        self.index += 1;
        Some(match dataset {
            Dataset::Covid => covid_episode(&mut self.rng),
            Dataset::Sp500 => sp500_episode(&mut self.rng),
            Dataset::Sdss => sdss_episode(&mut self.rng),
        })
    }
}

// ---- serve ------------------------------------------------------------------

/// Sessions the server holds; even slots are sdss, odd slots covid.
pub const SERVE_SESSIONS: usize = 64;

/// Scenario of a session slot.
pub fn slot_scenario(slot: usize) -> &'static str {
    if slot.is_multiple_of(2) {
        "sdss"
    } else {
        "covid"
    }
}

/// A covid date window for the serve sessions, as day offsets from
/// 2021-11-01: `[lo, lo + COVID_SPAN]`.
pub const COVID_SPAN: i64 = 15;
/// Covid window starts stay in this box (days after 2021-11-01).
pub const COVID_BOX: (i64, i64) = (2, 44);

/// The log a serve session runs before `generate`, and the chart window
/// the session starts on (its first query's). Literals are seeded, so a
/// fleet-cache hit has to rebind them.
pub fn session_log(scenario: &str, rng: &mut Rng) -> (Vec<String>, SlotWindow) {
    match scenario {
        "sdss" => {
            let a = cluster_window(rng, (718, -2));
            let b = cluster_window(rng, (740, 8));
            (vec![region_sql(a), region_sql(b)], SlotWindow::Sky(a))
        }
        _ => {
            let a = rng.range(COVID_BOX.0, COVID_BOX.1);
            let b = distinct(rng, a, COVID_BOX);
            let sql = |s: i64| {
                format!(
                    "SELECT date, sum(cases) AS cases FROM covid WHERE date BETWEEN \
                     DATE '{}' AND DATE '{}' GROUP BY date ORDER BY date",
                    date_after(11, s),
                    date_after(11, s + COVID_SPAN)
                )
            };
            (vec![sql(a), sql(b)], SlotWindow::Days(a))
        }
    }
}

/// What one serve request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServeKind {
    /// A journaled `gesture` with a burst of 1–4 events.
    Gesture,
    /// A `render_delta` read from the client's last scene version.
    RenderDelta,
    /// The regeneration sequence on one slot: `close`, `open`, two
    /// `run_cell`s with a literal variant of the log, `generate` (a fleet
    /// rebind) and a snapshot `render_delta`. Recycling the slot bounds
    /// every session's age, so the mix stays stationary.
    Regen,
}

/// The fixed serve pattern: 32 slots, one regeneration (6 requests), 17
/// gestures and 14 reads, so regeneration requests are 6 of 37.
pub const SERVE_PATTERN: [ServeKind; 32] = {
    use ServeKind::*;
    [
        Gesture,
        RenderDelta,
        Gesture,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
        Gesture,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
        Gesture,
        Gesture,
        RenderDelta,
        Regen,
        Gesture,
        RenderDelta,
        Gesture,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
        Gesture,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
        Gesture,
        RenderDelta,
    ]
};

/// One serve op: what to do to which session slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOp {
    /// The request kind.
    pub kind: ServeKind,
    /// The session slot it addresses.
    pub slot: usize,
    /// Events in a gesture burst (1–4; 0 for other kinds).
    pub burst: usize,
}

/// The serve op stream. Gesture and read targets are uniform over the
/// slots; regenerations recycle slots round-robin.
#[derive(Debug, Clone)]
pub struct ServeStream {
    rng: Rng,
    index: u64,
    next_regen: usize,
}

impl ServeStream {
    /// The serve stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ServeStream { rng: Rng::new(seed, 3), index: 0, next_regen: 0 }
    }
}

impl Iterator for ServeStream {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        let kind = SERVE_PATTERN[(self.index % SERVE_PATTERN.len() as u64) as usize];
        self.index += 1;
        Some(match kind {
            ServeKind::Regen => {
                let slot = self.next_regen;
                self.next_regen = (self.next_regen + 1) % SERVE_SESSIONS;
                ServeOp { kind, slot, burst: 0 }
            }
            ServeKind::Gesture => ServeOp {
                kind,
                slot: self.rng.below(SERVE_SESSIONS as u64) as usize,
                burst: 1 + self.rng.below(4) as usize,
            },
            ServeKind::RenderDelta => {
                ServeOp { kind, slot: self.rng.below(SERVE_SESSIONS as u64) as usize, burst: 0 }
            }
        })
    }
}

/// One gesture event for a serve session, in grid units: sdss sessions
/// pan and zoom their sky window, covid sessions pan their date window
/// by whole days.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotGesture {
    /// A sky pan/zoom.
    Sky(Gesture),
    /// A date pan by this many days.
    Days(i64),
}

/// The client's mirror of one session's chart window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotWindow {
    /// An sdss session's sky window.
    Sky(Window),
    /// A covid session's window start (days after 2021-11-01).
    Days(i64),
}

impl SlotWindow {
    /// The next gesture from this window (reflected into its box) and
    /// the window after it.
    pub fn step(&self, rng: &mut Rng) -> (SlotGesture, SlotWindow) {
        match *self {
            SlotWindow::Sky(w) => {
                let g = if rng.below(4) == 0 {
                    zoom_step(rng, w)
                } else {
                    pan_step(rng, w, (RA_BOX, DEC_BOX))
                };
                (SlotGesture::Sky(g), SlotWindow::Sky(w.apply(g)))
            }
            SlotWindow::Days(lo) => {
                let d = reflect(lo, rng.pick(&[-4, -2, -1, 1, 2, 4]), COVID_BOX);
                (SlotGesture::Days(d), SlotWindow::Days(lo + d))
            }
        }
    }
}
