#![warn(missing_docs)]

//! # pi2-notebook
//!
//! A headless notebook substrate: the reproduction's stand-in for the
//! Jupyter Lab extension of paper §3.1. It models exactly the interactions
//! the demo describes:
//!
//! * SQL **cells** that execute against the engine and render result
//!   tables;
//! * a **checkbox** per cell selecting it into the query log;
//! * a **Generate Interface** button ([`Notebook::generate_interface`])
//!   that invokes PI2 on the selected queries;
//! * a *Generated Interfaces* side panel with **version tabs** — each
//!   version archives a snapshot of the input query log and the cell
//!   states, "to adapt to edits and ensure the reproducibility of the
//!   generated interface";
//! * **revert**: going back to the notebook state of a previous version.
//!
//! ```
//! use pi2_notebook::Notebook;
//!
//! let mut nb = Notebook::new(pi2_datasets::toy::default_catalog());
//! let cell = nb.add_cell("SELECT a, count(*) FROM t GROUP BY a");
//! nb.run_cell(cell).unwrap();
//! let v1 = nb.generate_interface().unwrap();
//! assert_eq!(nb.version(v1).unwrap().label(), "V1");
//! ```

use pi2_core::{GeneratedInterface, InterfaceSession, Pi2, Pi2Error};
use pi2_engine::{Catalog, EngineError, ResultSet};
use pi2_sql::Query;
use std::fmt;
use std::sync::Arc;

/// Identifier of a cell within a notebook.
pub type CellId = usize;

/// One notebook cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable identifier.
    pub id: CellId,
    /// The cell's SQL text.
    pub source: String,
    /// The checkbox: include this cell's query in the generation log.
    pub selected: bool,
    /// Result of the most recent execution, shared with the catalog's
    /// result cache.
    pub result: Option<Arc<ResultSet>>,
    /// Error of the most recent execution, if it failed.
    pub error: Option<String>,
    /// Monotone execution counter (like Jupyter's `In [n]`), 0 = never run.
    pub execution_count: usize,
}

/// A generated-interface version in the side panel.
pub struct InterfaceVersion {
    /// 1-based version number (`V1`, `V2`, ... in the paper).
    pub number: usize,
    /// The generation result.
    pub generated: GeneratedInterface,
    /// The archived *Query Log* (collapsible section in the panel).
    pub query_log: Vec<String>,
    /// Snapshot of (source, selected) for every cell at generation time.
    pub cell_snapshot: Vec<(String, bool)>,
}

impl InterfaceVersion {
    /// Display label (`V1`, `V2`, ...).
    pub fn label(&self) -> String {
        format!("V{}", self.number)
    }
}

/// Notebook errors.
///
/// Structured like [`Pi2Error`] and `SessionError`: `#[non_exhaustive]`
/// (downstream matches need a `_` arm), with the underlying parse /
/// engine / generation error carried as a typed field and chained through
/// [`std::error::Error::source`] rather than flattened into a string.
#[derive(Debug)]
#[non_exhaustive]
pub enum NotebookError {
    /// No cell with that id.
    UnknownCell(CellId),
    /// No such interface version.
    UnknownVersion(usize),
    /// A cell's SQL failed to parse. The [`pi2_sql::ParseError`] (with
    /// line/column position) is available via `source()`.
    Parse {
        /// The cell whose source failed to parse.
        cell: CellId,
        /// The structured parse error.
        source: pi2_sql::ParseError,
    },
    /// A cell's query failed to execute. The [`EngineError`] is available
    /// via `source()`.
    Execution {
        /// The cell whose query failed.
        cell: CellId,
        /// The structured engine error.
        source: EngineError,
    },
    /// No cells are selected for generation.
    NothingSelected,
    /// Interface generation failed; the [`Pi2Error`] is available via
    /// `source()`.
    Generation(Pi2Error),
}

impl fmt::Display for NotebookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotebookError::UnknownCell(c) => write!(f, "unknown cell {c}"),
            NotebookError::UnknownVersion(v) => write!(f, "unknown interface version {v}"),
            NotebookError::Parse { cell, source } => {
                write!(f, "cell {cell} failed to parse: {source}")
            }
            NotebookError::Execution { cell, source } => {
                write!(f, "cell {cell} failed to execute: {source}")
            }
            NotebookError::NothingSelected => write!(f, "no cells selected for generation"),
            NotebookError::Generation(e) => write!(f, "interface generation failed: {e}"),
        }
    }
}

impl std::error::Error for NotebookError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NotebookError::Parse { source, .. } => Some(source),
            NotebookError::Execution { source, .. } => Some(source),
            NotebookError::Generation(e) => Some(e),
            _ => None,
        }
    }
}

/// The notebook: cells on the left, generated-interface versions on the
/// right (paper Figure 7's split view).
pub struct Notebook {
    pi2: Pi2,
    cells: Vec<Cell>,
    versions: Vec<InterfaceVersion>,
    executions: usize,
}

impl Notebook {
    /// A notebook whose kernel executes against `catalog` with default PI2
    /// settings.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_pi2(Pi2::builder(catalog).build())
    }

    /// A notebook with a custom-configured generator.
    pub fn with_pi2(pi2: Pi2) -> Self {
        Self { pi2, cells: Vec::new(), versions: Vec::new(), executions: 0 }
    }

    /// The cells, in order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The generated-interface versions, oldest first.
    pub fn versions(&self) -> &[InterfaceVersion] {
        &self.versions
    }

    /// Append a cell containing `source`; cells start selected (the demo
    /// flow selects the queries the analyst wants in the interface).
    pub fn add_cell(&mut self, source: impl Into<String>) -> CellId {
        let id = self.cells.len();
        self.cells.push(Cell {
            id,
            source: source.into(),
            selected: true,
            result: None,
            error: None,
            execution_count: 0,
        });
        id
    }

    fn cell_mut(&mut self, id: CellId) -> Result<&mut Cell, NotebookError> {
        self.cells.get_mut(id).ok_or(NotebookError::UnknownCell(id))
    }

    /// Replace a cell's source (the "refer back to previous cells to edit"
    /// workflow). Stale results are cleared.
    pub fn edit_cell(
        &mut self,
        id: CellId,
        source: impl Into<String>,
    ) -> Result<(), NotebookError> {
        let cell = self.cell_mut(id)?;
        cell.source = source.into();
        cell.result = None;
        cell.error = None;
        Ok(())
    }

    /// Set a cell's selection checkbox.
    pub fn set_selected(&mut self, id: CellId, selected: bool) -> Result<(), NotebookError> {
        self.cell_mut(id)?.selected = selected;
        Ok(())
    }

    /// Execute a cell, storing its result (or error) like a kernel would.
    pub fn run_cell(&mut self, id: CellId) -> Result<&ResultSet, NotebookError> {
        self.executions += 1;
        let count = self.executions;
        let catalog = self.pi2.catalog().clone();
        let cell = self.cell_mut(id)?;
        cell.execution_count = count;
        let query = match pi2_sql::parse_query(&cell.source) {
            Ok(q) => q,
            Err(e) => {
                cell.result = None;
                cell.error = Some(e.to_string());
                return Err(NotebookError::Parse { cell: id, source: e });
            }
        };
        match catalog.execute(&query) {
            Ok(r) => {
                cell.result = Some(r);
                cell.error = None;
                Ok(cell.result.as_ref().expect("just set"))
            }
            Err(e) => {
                cell.result = None;
                cell.error = Some(e.to_string());
                Err(NotebookError::Execution { cell: id, source: e })
            }
        }
    }

    /// Execute every cell top to bottom; stops at the first failure.
    pub fn run_all(&mut self) -> Result<(), NotebookError> {
        for id in 0..self.cells.len() {
            self.run_cell(id)?;
        }
        Ok(())
    }

    /// The parsed queries of the currently selected cells, in cell order.
    pub fn selected_queries(&self) -> Result<Vec<Query>, NotebookError> {
        let mut queries = Vec::new();
        for cell in &self.cells {
            if cell.selected {
                let q = pi2_sql::parse_query(&cell.source)
                    .map_err(|e| NotebookError::Parse { cell: cell.id, source: e })?;
                queries.push(q);
            }
        }
        if queries.is_empty() {
            return Err(NotebookError::NothingSelected);
        }
        Ok(queries)
    }

    /// The **Generate Interface** button: snapshot the selected queries,
    /// invoke PI2, append a new version tab, and return its number.
    pub fn generate_interface(&mut self) -> Result<usize, NotebookError> {
        let queries = self.selected_queries()?;
        let generated = self.pi2.generate(&queries).map_err(NotebookError::Generation)?;
        let number = self.versions.len() + 1;
        self.versions.push(InterfaceVersion {
            number,
            query_log: queries.iter().map(|q| q.to_string()).collect(),
            cell_snapshot: self.cells.iter().map(|c| (c.source.clone(), c.selected)).collect(),
            generated,
        });
        Ok(number)
    }

    /// Look up a version by number (1-based).
    pub fn version(&self, number: usize) -> Result<&InterfaceVersion, NotebookError> {
        self.versions
            .get(number.checked_sub(1).ok_or(NotebookError::UnknownVersion(number))?)
            .ok_or(NotebookError::UnknownVersion(number))
    }

    /// Open an interactive session on a version's interface.
    pub fn open_session(&self, number: usize) -> Result<InterfaceSession, NotebookError> {
        let v = self.version(number)?;
        Ok(self.pi2.session(&v.generated))
    }

    /// Fully revert the notebook's cells and selections to the snapshot
    /// archived with a version (the paper's "go back to, or fully revert,
    /// to a previous analysis").
    pub fn revert_to(&mut self, number: usize) -> Result<(), NotebookError> {
        let snapshot = self.version(number)?.cell_snapshot.clone();
        self.cells = snapshot
            .into_iter()
            .enumerate()
            .map(|(id, (source, selected))| Cell {
                id,
                source,
                selected,
                result: None,
                error: None,
                execution_count: 0,
            })
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_notebook() -> Notebook {
        Notebook::new(pi2_datasets::toy::default_catalog())
    }

    #[test]
    fn cells_execute_and_store_results() {
        let mut nb = toy_notebook();
        let c = nb.add_cell("SELECT count(*) FROM t");
        let r = nb.run_cell(c).unwrap();
        assert_eq!(r.rows[0][0], pi2_engine::Value::Int(200));
        assert_eq!(nb.cells()[c].execution_count, 1);
    }

    #[test]
    fn failed_cell_records_error() {
        let mut nb = toy_notebook();
        let c = nb.add_cell("SELECT nope FROM t");
        assert!(nb.run_cell(c).is_err());
        assert!(nb.cells()[c].error.is_some());
        assert!(nb.cells()[c].result.is_none());
    }

    #[test]
    fn errors_are_structured_and_source_chained() {
        let mut nb = toy_notebook();
        let c = nb.add_cell("NOT SQL AT ALL");
        let err = nb.run_cell(c).unwrap_err();
        assert!(matches!(err, NotebookError::Parse { cell, .. } if cell == c), "{err:?}");
        let source = std::error::Error::source(&err).expect("parse source");
        assert!(source.to_string().contains("line 1"), "{source}");

        let c2 = nb.add_cell("SELECT nope FROM t");
        let err = nb.run_cell(c2).unwrap_err();
        assert!(matches!(err, NotebookError::Execution { cell, .. } if cell == c2), "{err:?}");
        let source = std::error::Error::source(&err).expect("engine source");
        assert!(source.to_string().contains("nope"), "{source}");

        // selected_queries reports the failing cell, not a flat string.
        let mut nb = toy_notebook();
        let bad = nb.add_cell("ALSO NOT SQL");
        match nb.generate_interface().unwrap_err() {
            NotebookError::Parse { cell, .. } => assert_eq!(cell, bad),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn edit_clears_stale_results() {
        let mut nb = toy_notebook();
        let c = nb.add_cell("SELECT count(*) FROM t");
        nb.run_cell(c).unwrap();
        nb.edit_cell(c, "SELECT sum(a) FROM t").unwrap();
        assert!(nb.cells()[c].result.is_none());
    }

    #[test]
    fn generate_uses_selected_cells_only() {
        let mut nb = toy_notebook();
        nb.add_cell("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p");
        nb.add_cell("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p");
        let c3 = nb.add_cell("SELECT 1");
        nb.set_selected(c3, false).unwrap();
        let v = nb.generate_interface().unwrap();
        assert_eq!(v, 1);
        assert_eq!(nb.version(1).unwrap().query_log.len(), 2);
    }

    #[test]
    fn versions_accumulate_and_archive_logs() {
        let mut nb = toy_notebook();
        let c1 = nb.add_cell("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p");
        nb.generate_interface().unwrap();
        nb.add_cell("SELECT a, count(*) FROM t GROUP BY a");
        nb.generate_interface().unwrap();
        assert_eq!(nb.versions().len(), 2);
        assert_eq!(nb.version(1).unwrap().label(), "V1");
        assert_eq!(nb.version(1).unwrap().query_log.len(), 1);
        assert_eq!(nb.version(2).unwrap().query_log.len(), 2);
        // Editing a cell later does not change archived logs (snapshot).
        nb.edit_cell(c1, "SELECT b FROM t").unwrap();
        assert!(nb.version(1).unwrap().query_log[0].contains("a = 1"));
    }

    #[test]
    fn revert_restores_cells() {
        let mut nb = toy_notebook();
        nb.add_cell("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p");
        nb.generate_interface().unwrap();
        nb.add_cell("SELECT a, count(*) FROM t GROUP BY a");
        nb.edit_cell(0, "SELECT b, count(*) FROM t GROUP BY b").unwrap();
        nb.revert_to(1).unwrap();
        assert_eq!(nb.cells().len(), 1);
        assert!(nb.cells()[0].source.contains("a = 1"));
    }

    #[test]
    fn nothing_selected_is_error() {
        let mut nb = toy_notebook();
        let c = nb.add_cell("SELECT 1");
        nb.set_selected(c, false).unwrap();
        assert!(matches!(nb.generate_interface(), Err(NotebookError::NothingSelected)));
    }

    #[test]
    fn session_opens_from_version() {
        let mut nb = toy_notebook();
        nb.add_cell("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p");
        nb.add_cell("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p");
        let v = nb.generate_interface().unwrap();
        let session = nb.open_session(v).unwrap();
        assert!(!session.interface().charts.is_empty());
        assert!(nb.open_session(99).is_err());
    }
}
