//! Seeded query logs and widget gestures.
//!
//! A log is a list of `(kind, variant)` pairs over one scenario's query
//! templates. The kinds fix the log's structure — and so its fleet-cache
//! fingerprint — while the variant picks the literals: variant 0 is the
//! scenario's base spelling, any other variant a literal variant that the
//! fleet serves by rebinding a cached generation.

use crate::stats::Rng;
use pi2_core::prelude::{Event, Widget, WidgetKind, WidgetValue};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    Toy,
    Covid,
    Sp500,
    Sdss,
}

impl Scenario {
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Toy => "toy",
            Scenario::Covid => "covid",
            Scenario::Sp500 => "sp500",
            Scenario::Sdss => "sdss",
        }
    }

    /// The scenario's catalog, as the server builds it.
    pub fn catalog(self) -> pi2_core::prelude::Catalog {
        match self {
            Scenario::Toy => pi2_datasets::toy::default_catalog(),
            Scenario::Covid => pi2_datasets::covid::catalog(&Default::default()),
            Scenario::Sp500 => pi2_datasets::sp500::catalog(&Default::default()),
            Scenario::Sdss => pi2_datasets::sdss::catalog(&Default::default()),
        }
    }
}

/// Query templates per scenario.
pub const KINDS: usize = 3;

/// One query of `scenario`: template `kind` with the literals of
/// `variant`.
pub fn query(scenario: Scenario, kind: usize, variant: u64) -> String {
    let mut r = Rng::new(variant.wrapping_mul(0x100).wrapping_add(kind as u64));
    match (scenario, kind % KINDS) {
        (Scenario::Toy, 0) => {
            format!("SELECT p, count(*) FROM t WHERE a = {} GROUP BY p", r.below(5))
        }
        (Scenario::Toy, 1) => {
            format!("SELECT p, count(*) FROM t WHERE b = {} GROUP BY p", r.below(5))
        }
        (Scenario::Toy, _) => "SELECT a, count(*) FROM t GROUP BY a".to_string(),
        (Scenario::Covid, 0) => {
            let (m, a, b) = window(&mut r, &[11, 12]);
            format!(
                "SELECT date, sum(cases) AS cases FROM covid \
                 WHERE date BETWEEN DATE '2021-{m:02}-{a:02}' AND DATE '2021-{m:02}-{b:02}' \
                 GROUP BY date ORDER BY date"
            )
        }
        (Scenario::Covid, 1) => {
            let states = pi2_datasets::covid::STATES;
            let state = states[r.below(states.len())].0;
            format!(
                "SELECT date, sum(cases) AS cases FROM covid WHERE state = '{state}' \
                 GROUP BY date ORDER BY date"
            )
        }
        (Scenario::Covid, _) => {
            let (m, a, b) = window(&mut r, &[11, 12]);
            format!(
                "SELECT date, state, sum(cases) AS cases FROM covid \
                 WHERE date BETWEEN DATE '2021-{m:02}-{a:02}' AND DATE '2021-{m:02}-{b:02}' \
                 GROUP BY date, state ORDER BY date"
            )
        }
        (Scenario::Sp500, 0) => {
            let companies = pi2_datasets::sp500::COMPANIES;
            let ticker = companies[r.below(companies.len())].0;
            format!("SELECT date, close FROM prices WHERE ticker = '{ticker}' ORDER BY date")
        }
        (Scenario::Sp500, 1) => {
            let companies = pi2_datasets::sp500::COMPANIES;
            let ticker = companies[r.below(companies.len())].0;
            let (m, a, b) = window(&mut r, &[8, 9, 10, 11, 12]);
            format!(
                "SELECT date, close FROM prices WHERE ticker = '{ticker}' \
                 AND date BETWEEN DATE '2021-{m:02}-{a:02}' AND DATE '2021-{m:02}-{b:02}' ORDER BY date"
            )
        }
        (Scenario::Sp500, _) => {
            let (m, a, b) = window(&mut r, &[8, 9, 10, 11, 12]);
            format!(
                "SELECT c.sector, avg(p.close) AS avg_close FROM prices p \
                 JOIN companies c ON p.ticker = c.ticker \
                 WHERE p.date BETWEEN DATE '2021-{m:02}-{a:02}' AND DATE '2021-{m:02}-{b:02}' \
                 GROUP BY c.sector ORDER BY avg_close DESC"
            )
        }
        (Scenario::Sdss, k) => {
            let ra = 176.0 + 0.5 * r.below(20) as f64;
            let dec = -2.0 + 0.5 * r.below(10) as f64;
            let window = format!(
                "ra BETWEEN {ra:.1} AND {:.1} AND dec BETWEEN {dec:.1} AND {:.1}",
                ra + 2.0,
                dec + 2.0
            );
            match k {
                0 => format!("SELECT ra, dec FROM photoobj WHERE {window}"),
                1 => {
                    let class = *r.pick(&["GALAXY", "STAR", "QSO"]);
                    format!("SELECT ra, dec FROM photoobj WHERE {window} AND class = '{class}'")
                }
                _ => format!(
                    "SELECT class, count(*) AS n FROM photoobj WHERE {window} GROUP BY class"
                ),
            }
        }
    }
}

/// A window inside one month: (month, first day, last day).
fn window(r: &mut Rng, months: &[u32]) -> (u32, u32, u32) {
    let month = *r.pick(months);
    let first = 1 + r.below(15) as u32;
    (month, first, first + 7 + r.below(7) as u32)
}

pub type Log = Vec<(usize, u64)>;

pub fn log_sql(scenario: Scenario, log: &Log) -> Vec<String> {
    log.iter().map(|&(kind, variant)| query(scenario, kind, variant)).collect()
}

/// A seeded event that operates `w` with a valid value, if the widget
/// kind takes one.
pub fn widget_event(rng: &mut Rng, w: &Widget) -> Option<Event> {
    let value = match &w.kind {
        WidgetKind::Radio { options }
        | WidgetKind::ButtonGroup { options }
        | WidgetKind::Dropdown { options }
        | WidgetKind::Tabs { options } => WidgetValue::Pick(rng.below(options.len().max(1))),
        WidgetKind::Toggle => WidgetValue::Bool(rng.chance(0.5)),
        WidgetKind::Slider { min, max, step, .. } => {
            WidgetValue::Scalar(on_grid(rng, *min, *max, *step))
        }
        WidgetKind::RangeSlider { min, max, step, .. } => {
            let a = on_grid(rng, *min, *max, *step);
            let b = on_grid(rng, *min, *max, *step);
            WidgetValue::Range(a.min(b), a.max(b))
        }
        WidgetKind::MultiSelect { options } => {
            WidgetValue::Multi((0..options.len()).map(|_| rng.chance(0.5)).collect())
        }
        _ => return None,
    };
    Some(Event::SetWidget { widget: w.id, value })
}

fn on_grid(rng: &mut Rng, min: f64, max: f64, step: f64) -> f64 {
    if max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
        return min;
    }
    let step = if step > 0.0 { step } else { (max - min) / 100.0 };
    let steps = ((max - min) / step).floor() as usize;
    min + step * rng.below(steps + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_template_parses_and_runs() {
        for scenario in [Scenario::Toy, Scenario::Covid, Scenario::Sp500, Scenario::Sdss] {
            let catalog = scenario.catalog();
            for kind in 0..KINDS {
                for variant in [0, 1, 77] {
                    let sql = query(scenario, kind, variant);
                    let q = pi2_sql::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    catalog.execute(&q).unwrap_or_else(|e| panic!("{sql}: {e}"));
                }
            }
        }
    }

    #[test]
    fn variants_change_literals_not_structure() {
        let a = query(Scenario::Covid, 0, 1);
        let b = query(Scenario::Covid, 0, 2);
        assert_ne!(a, b);
        let free = |s: &str| pi2_sql::literal_free(&pi2_sql::parse_query(s).unwrap());
        assert_eq!(free(&a), free(&b));
        assert_eq!(query(Scenario::Sp500, 2, 9), query(Scenario::Sp500, 2, 9));
    }
}
