/**
 * @file
 * Exact branch & bound for the single-constraint multiple-choice
 * knapsack, using the LP relaxation for bounding and its rounding for
 * the initial incumbent.
 */
#ifndef SNIP_ILP_BRANCH_AND_BOUND_H
#define SNIP_ILP_BRANCH_AND_BOUND_H

#include "ilp/problem.h"

namespace snip {

/**
 * Solve a single-constraint instance exactly, up to a 30 s wall-clock
 * limit (the paper's per-solve limit, Sec. 6.1) and a 10M-node cap. If
 * a limit is hit, the best incumbent is returned: the solution is
 * still feasible, just possibly not optimal.
 */
IlpSolution solveBranchAndBound(const IlpProblem &problem);

} // namespace snip

#endif // SNIP_ILP_BRANCH_AND_BOUND_H
