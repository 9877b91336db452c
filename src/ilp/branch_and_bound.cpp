#include "ilp/branch_and_bound.h"

#include <chrono>
#include <cmath>

#include "ilp/lp_relaxation.h"
#include "util/logging.h"

namespace snip {

namespace {

using Clock = std::chrono::steady_clock;

/** Hard wall-clock limit (paper: 30 s per solve, Sec. 6.1). */
constexpr double kTimeLimitSeconds = 30.0;
/** Node cap as a second backstop. */
constexpr int64_t kMaxNodes = 10'000'000;

/** Mutable search state shared across the recursion. */
struct SearchState
{
    const IlpProblem *problem;
    Clock::time_point start;
    double incumbent_obj = std::numeric_limits<double>::infinity();
    std::vector<int> incumbent;
    int64_t nodes = 0;
    bool hit_limit = false;

    bool
    expired()
    {
        if (nodes >= kMaxNodes)
            return true;
        // Check the clock sparsely; it is not free.
        if ((nodes & 0x3F) == 0) {
            double s = std::chrono::duration<double>(Clock::now() - start)
                           .count();
            if (s > kTimeLimitSeconds)
                return true;
        }
        return false;
    }
};

void
updateIncumbent(SearchState &st, const std::vector<int> &choice)
{
    double obj, eff;
    if (verifySolution(*st.problem, choice, &obj, &eff) &&
        obj < st.incumbent_obj) {
        st.incumbent_obj = obj;
        st.incumbent = choice;
    }
}

void
branch(SearchState &st, std::vector<int> &fixed)
{
    ++st.nodes;
    if (st.expired()) {
        st.hit_limit = true;
        return;
    }

    LpResult lp = solveLpRelaxation(*st.problem, fixed);
    if (!lp.feasible)
        return; // no completion satisfies the constraint
    if (lp.bound >= st.incumbent_obj - 1e-12)
        return; // cannot improve
    if (lp.rounded_feasible)
        updateIncumbent(st, lp.rounded_choice);
    if (lp.frac_item < 0) {
        // LP optimum is integral: it is optimal for this subtree.
        updateIncumbent(st, lp.base_choice);
        return;
    }

    // Branch on the fractional item, trying the LP's preferred options
    // first for better early incumbents.
    const int item = lp.frac_item;
    const int n_opts = st.problem->numOptions(item);
    std::vector<int> order;
    order.push_back(lp.frac_to);
    order.push_back(lp.frac_from);
    for (int j = 0; j < n_opts; ++j) {
        if (j != lp.frac_to && j != lp.frac_from)
            order.push_back(j);
    }
    for (int j : order) {
        fixed[static_cast<size_t>(item)] = j;
        branch(st, fixed);
        if (st.hit_limit)
            break;
    }
    fixed[static_cast<size_t>(item)] = -1;
}

} // namespace

IlpSolution
solveBranchAndBound(const IlpProblem &problem)
{
    problem.validate();
    SNIP_ASSERT(problem.groups.empty(),
                "decompose groups before branch & bound");

    SearchState st;
    st.problem = &problem;
    st.start = Clock::now();

    std::vector<int> fixed(static_cast<size_t>(problem.numItems()), -1);
    branch(st, fixed);

    IlpSolution sol;
    sol.nodes_explored = st.nodes;
    sol.solve_seconds =
        std::chrono::duration<double>(Clock::now() - st.start).count();
    if (st.incumbent.empty())
        return sol; // infeasible
    sol.feasible = true;
    sol.choice = st.incumbent;
    verifySolution(problem, sol.choice, &sol.objective,
                   &sol.achieved_efficiency);
    return sol;
}

} // namespace snip
