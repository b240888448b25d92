//! In-memory span tree for the traced replay.
//!
//! A span is one named call made by the benchmark's own code into a layer
//! of sixscope. Spans nest by call structure: a span opened inside another
//! span's closure is its child. Repeated calls of the same name under the
//! same parent accumulate into one node (wall time, work items, calls).
//! Self time is a node's wall time minus its children's; nothing is
//! estimated or apportioned.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub parent: Option<usize>,
    pub wall_s: f64,
    pub items: u64,
    pub calls: u64,
}

/// Records spans when enabled; when disabled, runs the closures with no
/// clock reads at all (the untraced replay that `trace.overhead_s` is
/// measured against).
pub struct Tracer {
    enabled: bool,
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            nodes: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` as span `name`; `f` returns its result and the number of
    /// work items it handled.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let parent = self.stack.last().copied();
        let id = match self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            Some(id) => id,
            None => {
                self.nodes.push(Node {
                    name: name.to_string(),
                    parent,
                    wall_s: 0.0,
                    items: 0,
                    calls: 0,
                });
                self.nodes.len() - 1
            }
        };
        self.stack.push(id);
        let start = Instant::now();
        let (result, items) = f(self);
        let wall = start.elapsed().as_secs_f64();
        self.stack.pop();
        let node = &mut self.nodes[id];
        node.wall_s += wall;
        node.items += items;
        node.calls += 1;
        result
    }

    /// [`Tracer::span`] for a fallible `f`; a failed call counts no items.
    pub fn try_span<R, E>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> Result<(R, u64), E>,
    ) -> Result<R, E> {
        self.span(name, |t| match f(t) {
            Ok((result, items)) => (Ok(result), items),
            Err(e) => (Err(e), 0),
        })
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Wall time of `id` not covered by its child spans.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .nodes
            .iter()
            .filter(|n| n.parent == Some(id))
            .map(|n| n.wall_s)
            .sum();
        self.nodes[id].wall_s - children
    }

    /// True when node `id` has `ancestor` on its parent chain (or is it).
    fn under(&self, id: usize, ancestor: usize) -> bool {
        let mut cur = Some(id);
        while let Some(i) = cur {
            if i == ancestor {
                return true;
            }
            cur = self.nodes[i].parent;
        }
        false
    }

    /// The root span named `root`, if recorded.
    pub fn root(&self, root: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.parent.is_none() && n.name == root)
    }

    /// Sum of (wall, items) over every span named `name` inside `root`.
    pub fn find(&self, root: usize, name: &str) -> Option<(f64, u64)> {
        let mut found = None;
        for (id, n) in self.nodes.iter().enumerate() {
            if n.name == name && self.under(id, root) {
                let (w, c) = found.unwrap_or((0.0, 0));
                found = Some((w + n.wall_s, c + n.items));
            }
        }
        found
    }

    /// First span named `name` inside `root` (its node id).
    pub fn find_id(&self, root: usize, name: &str) -> Option<usize> {
        (0..self.nodes.len()).find(|&id| self.nodes[id].name == name && self.under(id, root))
    }

    /// Path of `id` from its root, joined by `/`.
    pub fn path(&self, id: usize) -> String {
        let mut parts = vec![self.nodes[id].name.as_str()];
        let mut cur = self.nodes[id].parent;
        while let Some(i) = cur {
            parts.push(&self.nodes[i].name);
            cur = self.nodes[i].parent;
        }
        parts.reverse();
        parts.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_accumulate() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            for _ in 0..3 {
                t.span("child", |_| ((), 2));
            }
            ((), 1)
        });
        let root = t.root("root").unwrap();
        let child = t.find_id(root, "child").unwrap();
        assert_eq!(t.nodes()[child].calls, 3);
        assert_eq!(t.nodes()[child].items, 6);
        assert_eq!(t.nodes()[child].parent, Some(root));
        assert!(t.self_s(root) <= t.nodes()[root].wall_s);
        assert_eq!(t.path(child), "root/child");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("root", |t| (t.span("child", |_| (7, 1)), 1));
        assert_eq!(v, 7);
        assert!(t.nodes().is_empty());
    }
}
