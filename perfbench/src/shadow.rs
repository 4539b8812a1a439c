//! The benchmark's own copy of the rating relation. Every write is
//! applied here as well as to the engine; the engine's ingest receipts
//! are checked against it, the oracle reads it, and at the end of a run
//! the engine's relation must equal it.

use fairrec_types::{ItemId, RatingMatrix, RatingTriple, UserId};
use std::collections::BTreeMap;

/// `(user, item) → score`, one ordered map per user.
#[derive(Debug)]
pub struct Relation {
    rows: Vec<BTreeMap<ItemId, f64>>,
    num_items: u32,
    /// An upper bound on the largest user degree (exact until a removal
    /// lowers the largest degree), for degree-proportional sampling.
    max_degree: usize,
}

impl Relation {
    pub fn new(num_users: u32, num_items: u32) -> Self {
        Self {
            rows: vec![BTreeMap::new(); num_users as usize],
            num_items,
            max_degree: 0,
        }
    }

    pub fn from_matrix(matrix: &RatingMatrix) -> Self {
        let mut relation = Self::new(matrix.num_users(), matrix.num_items());
        for u in matrix.user_ids() {
            for (item, score) in matrix.ratings_of(u) {
                relation.put(u, item, score);
            }
        }
        relation
    }

    pub fn num_users(&self) -> u32 {
        self.rows.len() as u32
    }

    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    pub fn get(&self, user: UserId, item: ItemId) -> Option<f64> {
        self.rows[user.index()].get(&item).copied()
    }

    /// Inserts or updates; returns the replaced score.
    pub fn put(&mut self, user: UserId, item: ItemId, score: f64) -> Option<f64> {
        let row = &mut self.rows[user.index()];
        let previous = row.insert(item, score);
        self.max_degree = self.max_degree.max(row.len());
        previous
    }

    /// Deletes; returns the removed score.
    pub fn remove(&mut self, user: UserId, item: ItemId) -> Option<f64> {
        self.rows[user.index()].remove(&item)
    }

    pub fn degree(&self, user: UserId) -> usize {
        self.rows[user.index()].len()
    }

    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The user's `n`-th rated item in ascending id order.
    pub fn rated_item(&self, user: UserId, n: usize) -> ItemId {
        *self.rows[user.index()]
            .keys()
            .nth(n)
            .expect("n is below the user's degree")
    }

    /// The user's ratings, ascending by item.
    pub fn row(&self, user: UserId) -> &BTreeMap<ItemId, f64> {
        &self.rows[user.index()]
    }

    pub fn len(&self) -> usize {
        self.rows.iter().map(BTreeMap::len).sum()
    }

    /// Whether `triples` holds exactly this relation (any order).
    pub fn equals_triples(&self, triples: &[RatingTriple]) -> Result<(), String> {
        if triples.len() != self.len() {
            return Err(format!(
                "engine holds {} ratings, the shadow relation {}",
                triples.len(),
                self.len()
            ));
        }
        for t in triples {
            match self
                .rows
                .get(t.user.index())
                .and_then(|row| row.get(&t.item))
            {
                Some(&score) if score == t.rating.value() => {}
                other => {
                    return Err(format!(
                        "engine holds ({}, {}) = {}, the shadow relation {:?}",
                        t.user,
                        t.item,
                        t.rating.value(),
                        other
                    ))
                }
            }
        }
        Ok(())
    }
}
