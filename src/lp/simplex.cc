#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace provview {

namespace {

constexpr double kEps = 1e-9;             // pivot / feasibility tolerance
constexpr int kMaxIterations = 500000;    // across both phases
// Switch from Dantzig pricing to Bland's rule after this many consecutive
// non-improving iterations (anti-cycling).
constexpr int kBlandThreshold = 2000;

// Internal dense tableau. Rows: one per constraint, plus a cost row kept
// separately. Columns: structural variables (after shifting lower bounds to
// zero), slack/surplus columns, artificial columns, and the rhs.
class Tableau {
 public:
  Tableau(const LinearProgram& lp, const SimplexOptions& options)
      : lp_(lp), opt_(options), n_(lp.num_vars()) {
    BuildRows();
    BuildColumns();
  }

  LpSolution Run() {
    LpSolution solution;
    // ---- Phase 1: minimize the sum of artificials. ----
    if (num_artificial_ > 0) {
      std::vector<double> phase1_cost(static_cast<size_t>(num_cols_), 0.0);
      for (int j = first_artificial_; j < num_cols_; ++j) {
        phase1_cost[static_cast<size_t>(j)] = 1.0;
      }
      InstallCost(phase1_cost);
      Status st = Optimize(/*allow_artificial_entering=*/false, &solution);
      if (!st.ok()) {
        solution.status = st;
        return solution;
      }
      if (cost_rhs_ < -kEps) {
        // cost_rhs_ holds -objective; phase-1 objective > eps ⇒ infeasible.
        solution.status = Status::Infeasible("phase-1 objective positive");
        return solution;
      }
      DriveOutArtificials();
    }
    // ---- Phase 2: original objective. ----
    std::vector<double> phase2_cost(static_cast<size_t>(num_cols_), 0.0);
    for (int j = 0; j < n_; ++j) {
      phase2_cost[static_cast<size_t>(j)] =
          lp_.objective_coeff(j);
    }
    InstallCost(phase2_cost);
    Status st = Optimize(/*allow_artificial_entering=*/false, &solution);
    if (!st.ok()) {
      solution.status = st;
      return solution;
    }
    // Extract structural values (undo the lower-bound shift).
    solution.x.assign(static_cast<size_t>(n_), 0.0);
    for (int i = 0; i < num_rows_; ++i) {
      int bv = basis_[static_cast<size_t>(i)];
      if (bv < n_) {
        solution.x[static_cast<size_t>(bv)] = rhs_[static_cast<size_t>(i)];
      }
    }
    for (int j = 0; j < n_; ++j) {
      solution.x[static_cast<size_t>(j)] += lp_.lower_bound(j);
    }
    solution.objective = lp_.Objective(solution.x);
    solution.status = Status::OK();
    return solution;
  }

 private:
  // Pivots between deadline polls: each pivot is already O(rows·cols), so a
  // small stride keeps service-mode LP solves responsive without measurable
  // overhead.
  static constexpr int kControlStride = 16;

  struct Row {
    std::vector<double> coeffs;  // dense over structural variables
    ConstraintSense sense;
    double rhs;
  };

  void BuildRows() {
    // Original constraints with lower-bound shift folded into the rhs.
    for (const LpConstraint& c : lp_.constraints()) {
      Row row;
      row.coeffs.assign(static_cast<size_t>(n_), 0.0);
      double shift = 0.0;
      for (const auto& [var, coeff] : c.terms) {
        row.coeffs[static_cast<size_t>(var)] += coeff;
        shift += coeff * lp_.lower_bound(var);
      }
      row.sense = c.sense;
      row.rhs = c.rhs - shift;
      rows_.push_back(std::move(row));
    }
    // Finite upper bounds become explicit ≤ rows on the shifted variable.
    for (int j = 0; j < n_; ++j) {
      double range = lp_.upper_bound(j) - lp_.lower_bound(j);
      if (std::isfinite(range)) {
        Row row;
        row.coeffs.assign(static_cast<size_t>(n_), 0.0);
        row.coeffs[static_cast<size_t>(j)] = 1.0;
        row.sense = ConstraintSense::kLe;
        row.rhs = range;
        rows_.push_back(std::move(row));
      }
    }
    // Normalize to non-negative rhs.
    for (Row& row : rows_) {
      if (row.rhs < 0) {
        for (double& v : row.coeffs) v = -v;
        row.rhs = -row.rhs;
        if (row.sense == ConstraintSense::kLe) {
          row.sense = ConstraintSense::kGe;
        } else if (row.sense == ConstraintSense::kGe) {
          row.sense = ConstraintSense::kLe;
        }
      }
    }
    num_rows_ = static_cast<int>(rows_.size());
  }

  void BuildColumns() {
    // Column layout: [0, n_) structural; then slack/surplus; then
    // artificials.
    int num_slack = 0;
    for (const Row& row : rows_) {
      if (row.sense != ConstraintSense::kEq) ++num_slack;
    }
    num_artificial_ = 0;
    for (const Row& row : rows_) {
      if (row.sense != ConstraintSense::kLe) ++num_artificial_;
    }
    first_slack_ = n_;
    first_artificial_ = n_ + num_slack;
    num_cols_ = n_ + num_slack + num_artificial_;

    tab_.assign(static_cast<size_t>(num_rows_),
                std::vector<double>(static_cast<size_t>(num_cols_), 0.0));
    rhs_.assign(static_cast<size_t>(num_rows_), 0.0);
    basis_.assign(static_cast<size_t>(num_rows_), -1);

    int slack = first_slack_;
    int art = first_artificial_;
    for (int i = 0; i < num_rows_; ++i) {
      const Row& row = rows_[static_cast<size_t>(i)];
      for (int j = 0; j < n_; ++j) {
        tab_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
            row.coeffs[static_cast<size_t>(j)];
      }
      rhs_[static_cast<size_t>(i)] = row.rhs;
      switch (row.sense) {
        case ConstraintSense::kLe:
          tab_[static_cast<size_t>(i)][static_cast<size_t>(slack)] = 1.0;
          basis_[static_cast<size_t>(i)] = slack++;
          break;
        case ConstraintSense::kGe:
          tab_[static_cast<size_t>(i)][static_cast<size_t>(slack)] = -1.0;
          ++slack;
          tab_[static_cast<size_t>(i)][static_cast<size_t>(art)] = 1.0;
          basis_[static_cast<size_t>(i)] = art++;
          break;
        case ConstraintSense::kEq:
          tab_[static_cast<size_t>(i)][static_cast<size_t>(art)] = 1.0;
          basis_[static_cast<size_t>(i)] = art++;
          break;
      }
    }
  }

  // Installs a cost vector and prices it against the current basis.
  void InstallCost(const std::vector<double>& cost) {
    cost_row_ = cost;
    cost_rhs_ = 0.0;
    for (int i = 0; i < num_rows_; ++i) {
      double cb = cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
      if (cb == 0.0) continue;
      for (int j = 0; j < num_cols_; ++j) {
        cost_row_[static_cast<size_t>(j)] -=
            cb * tab_[static_cast<size_t>(i)][static_cast<size_t>(j)];
      }
      cost_rhs_ -= cb * rhs_[static_cast<size_t>(i)];
    }
  }

  Status Optimize(bool allow_artificial_entering, LpSolution* solution) {
    const int entering_limit =
        allow_artificial_entering ? num_cols_ : first_artificial_;
    int stall = 0;
    double last_obj = cost_rhs_;
    while (true) {
      if (solution->iterations >= kMaxIterations) {
        return Status::Timeout("simplex iteration budget exhausted");
      }
      if (opt_.control != nullptr &&
          (solution->iterations % kControlStride) == 0 &&
          opt_.control->ExpiredNow()) {
        return opt_.control->Check();
      }
      const bool bland = stall >= kBlandThreshold;
      // Entering column.
      int enter = -1;
      double best = -kEps;
      for (int j = 0; j < entering_limit; ++j) {
        double rc = cost_row_[static_cast<size_t>(j)];
        if (rc < best) {
          enter = j;
          if (bland) break;  // Bland: first eligible index
          best = rc;
        } else if (bland && rc < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter < 0) return Status::OK();  // optimal
      // Leaving row (ratio test; Bland tie-break on basis index).
      int leave = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < num_rows_; ++i) {
        double a = tab_[static_cast<size_t>(i)][static_cast<size_t>(enter)];
        if (a <= kEps) continue;
        double ratio = rhs_[static_cast<size_t>(i)] / a;
        if (leave < 0 || ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps &&
             basis_[static_cast<size_t>(i)] <
                 basis_[static_cast<size_t>(leave)])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave < 0) return Status::Unbounded("no blocking row");
      Pivot(leave, enter);
      ++solution->iterations;
      if (cost_rhs_ > last_obj + kEps) {
        stall = 0;
        last_obj = cost_rhs_;
      } else {
        ++stall;
      }
    }
  }

  void Pivot(int leave, int enter) {
    auto& prow = tab_[static_cast<size_t>(leave)];
    const double pivot = prow[static_cast<size_t>(enter)];
    for (double& v : prow) v /= pivot;
    rhs_[static_cast<size_t>(leave)] /= pivot;
    prow[static_cast<size_t>(enter)] = 1.0;  // exact
    for (int i = 0; i < num_rows_; ++i) {
      if (i == leave) continue;
      double factor = tab_[static_cast<size_t>(i)][static_cast<size_t>(enter)];
      if (factor == 0.0) continue;
      auto& row = tab_[static_cast<size_t>(i)];
      for (int j = 0; j < num_cols_; ++j) {
        row[static_cast<size_t>(j)] -= factor * prow[static_cast<size_t>(j)];
      }
      row[static_cast<size_t>(enter)] = 0.0;
      rhs_[static_cast<size_t>(i)] -= factor * rhs_[static_cast<size_t>(leave)];
      if (rhs_[static_cast<size_t>(i)] < 0 &&
          rhs_[static_cast<size_t>(i)] > -1e-11) {
        rhs_[static_cast<size_t>(i)] = 0.0;  // clamp numeric dust
      }
    }
    double factor = cost_row_[static_cast<size_t>(enter)];
    if (factor != 0.0) {
      for (int j = 0; j < num_cols_; ++j) {
        cost_row_[static_cast<size_t>(j)] -=
            factor * prow[static_cast<size_t>(j)];
      }
      cost_row_[static_cast<size_t>(enter)] = 0.0;
      cost_rhs_ -= factor * rhs_[static_cast<size_t>(leave)];
    }
    basis_[static_cast<size_t>(leave)] = enter;
  }

  // After phase 1, pivots basic artificials out where possible; rows where
  // no pivot exists are redundant and harmless (the artificial stays basic
  // at value zero and can never re-enter the objective).
  void DriveOutArtificials() {
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[static_cast<size_t>(i)] < first_artificial_) continue;
      if (rhs_[static_cast<size_t>(i)] > kEps) continue;  // shouldn't happen
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(tab_[static_cast<size_t>(i)][static_cast<size_t>(j)]) >
            1e-7) {
          Pivot(i, j);
          break;
        }
      }
    }
  }

  const LinearProgram& lp_;
  const SimplexOptions& opt_;
  const int n_;

  std::vector<Row> rows_;
  int num_rows_ = 0;
  int num_cols_ = 0;
  int first_slack_ = 0;
  int first_artificial_ = 0;
  int num_artificial_ = 0;

  std::vector<std::vector<double>> tab_;
  std::vector<double> rhs_;
  std::vector<int> basis_;
  std::vector<double> cost_row_;
  double cost_rhs_ = 0.0;  // negative of current objective value
};

}  // namespace

LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options) {
  if (options.control != nullptr && options.control->ExpiredNow()) {
    LpSolution solution;
    solution.status = options.control->Check();
    return solution;
  }
  Tableau tableau(lp, options);
  return tableau.Run();
}

}  // namespace provview
