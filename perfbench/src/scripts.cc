#include "scripts.h"

#include "util.h"

namespace perfbench {

namespace {

std::string I(int64_t v) { return std::to_string(v); }

std::string S(uint64_t seed, const std::string& label) {
  return I(DmlSeed(seed, label));
}

}  // namespace

NamedScript MiniBatchScript(uint64_t seed, int64_t rows, int64_t batch) {
  std::string body;
  for (int k = 0; k < 10; ++k) {
    body += "  Xb = ((Xb + Xb) * i - Xb) / (i + 1);\n";
  }
  return {"minibatch",
          "X = rand(rows=" + I(rows) + ", cols=784, min=0, max=1, seed=" +
              S(seed, "minibatch.X") + ");\n" +
              "nb = floor(" + I(rows) + " / " + I(batch) + ");\n" +
              "acc = 0;\n"
              "for (i in 1:nb) {\n"
              "  lo = (i - 1) * " + I(batch) + " + 1;\n"
              "  hi = i * " + I(batch) + ";\n"
              "  Xb = X[lo:hi, ];\n" +
              body +
              "  acc = acc + sum(Xb);\n"
              "}\n"
              "result = acc;\n"};
}

std::vector<NamedScript> HpoSuite(uint64_t seed) {
  std::vector<NamedScript> suite;
  // HL2SVM (Fig. 9(a)): L2SVM over 4 lambdas, with and without intercept.
  suite.push_back(
      {"hl2svm",
       "X = rand(rows=10000, cols=50, min=-1, max=1, seed=" +
           S(seed, "hl2svm.X") + ");\n"
           "w0 = rand(rows=50, cols=1, min=-1, max=1, seed=" +
           S(seed, "hl2svm.w") + ");\n"
           "Y = 2 * ((X %*% w0) > 0) - 1;\n"
           "bestLoss = 1e300;\n"
           "regs = 10 ^ (0 - seq(1, 4, 1) / 10);\n"
           "for (r in 1:nrow(regs)) {\n"
           "  for (ic in 0:1) {\n"
           "    w = l2svm(X, Y, ic, as.scalar(regs[r, 1]), 1e-12, 10);\n"
           "    Xl = X;\n"
           "    if (ic == 1) { Xl = cbind(X, matrix(1, nrow(X), 1)); }\n"
           "    loss = l2norm(Xl, Y, w);\n"
           "    if (loss < bestLoss) { bestLoss = loss; }\n"
           "  }\n"
           "}\n"
           "result = bestLoss;\n"});
  // HLM (Fig. 9(b)): task-parallel grid-search lm over 6 x 3 x 5 configs.
  suite.push_back(
      {"hlm",
       "X = rand(rows=10000, cols=60, min=-1, max=1, seed=" +
           S(seed, "hlm.X") + ");\n"
           "y = X %*% rand(rows=60, cols=1, min=-1, max=1, seed=" +
           S(seed, "hlm.w") + ")\n"
           "    + rand(rows=10000, cols=1, min=-0.1, max=0.1, seed=" +
           S(seed, "hlm.e") + ");\n"
           "regs = 10 ^ (0 - seq(1, 6, 1));\n"
           "icpts = seq(0, 2, 1);\n"
           "tols = 10 ^ (0 - 7 - seq(1, 5, 1));\n"
           "losses = gridSearchLmPar(X, y, regs, icpts, tols);\n"
           "result = min(losses);\n"});
  // HCV (Fig. 9(c)): grid search over task-parallel 16-fold CV lm.
  suite.push_back(
      {"hcv",
       "X = rand(rows=4000, cols=40, min=-1, max=1, seed=" +
           S(seed, "hcv.X") + ");\n"
           "y = X %*% rand(rows=40, cols=1, min=-1, max=1, seed=" +
           S(seed, "hcv.w") + ");\n"
           "regs = 10 ^ (0 - seq(1, 6, 1));\n"
           "best = 1e300;\n"
           "for (r in 1:nrow(regs)) {\n"
           "  for (c in 1:3) {\n"
           "    rg = as.scalar(regs[r, 1]);\n"
           "    l = sum(cvLmPar(X, y, 16, rg, 0));\n"
           "    if (l < best) { best = l; }\n"
           "  }\n"
           "}\n"
           "result = best;\n"});
  // ENS (Fig. 9(d)): 3 MSVM + 3 MLogReg members, random search over 40
  // ensemble weightings.
  suite.push_back(
      {"ens",
       "nclass = 10;\n"
       "X = rand(rows=4000, cols=100, min=-1, max=1, seed=" +
           S(seed, "ens.X") + ");\n"
           "proto = rand(rows=100, cols=nclass, min=-1, max=1, seed=" +
           S(seed, "ens.p") + ");\n"
           "Y = rowIndexMax(X %*% proto);\n"
           "Xte = rand(rows=2000, cols=100, min=-1, max=1, seed=" +
           S(seed, "ens.Xte") + ");\n"
           "Yte = rowIndexMax(Xte %*% proto);\n"
           "W1 = msvm(X, Y, nclass, 1, 0.001, 4);\n"
           "W2 = msvm(X, Y, nclass, 0.1, 0.001, 4);\n"
           "W3 = msvm(X, Y, nclass, 0.01, 0.001, 4);\n"
           "M1 = mlogreg(X, Y, nclass, 0.001, 6, 0.1);\n"
           "M2 = mlogreg(X, Y, nclass, 0.01, 6, 0.1);\n"
           "M3 = mlogreg(X, Y, nclass, 0.1, 6, 0.1);\n"
           "ws = rand(rows=40, cols=6, min=0, max=1, seed=" +
           S(seed, "ens.ws") + ");\n"
           "bestAcc = 0 - 1;\n"
           "for (i in 1:40) {\n"
           "  Sc = as.scalar(ws[i, 1]) * (Xte %*% W1)\n"
           "    + as.scalar(ws[i, 2]) * (Xte %*% W2)\n"
           "    + as.scalar(ws[i, 3]) * (Xte %*% W3)\n"
           "    + as.scalar(ws[i, 4]) * (Xte %*% M1)\n"
           "    + as.scalar(ws[i, 5]) * (Xte %*% M2)\n"
           "    + as.scalar(ws[i, 6]) * (Xte %*% M3);\n"
           "  acc = mean(rowIndexMax(Sc) == Yte);\n"
           "  if (acc > bestAcc) { bestAcc = acc; }\n"
           "}\n"
           "result = bestAcc;\n"});
  // PCALM (Fig. 9(e)): pca for 8 values of K, lm on each projection.
  suite.push_back(
      {"pcalm",
       "A = rand(rows=20000, cols=60, min=-1, max=1, seed=" +
           S(seed, "pcalm.A") + ");\n"
           "y = A %*% rand(rows=60, cols=1, min=-1, max=1, seed=" +
           S(seed, "pcalm.w") + ");\n"
           "bestR2 = 0 - 1e300;\n"
           "kmin = ceil(60 * 0.1);\n"
           "for (ki in 1:8) {\n"
           "  K = kmin + (ki - 1) * 2;\n"
           "  [R, V] = pca(A, K);\n"
           "  B = lm(R, y, 0, 1e-6, 1e-9, 0);\n"
           "  ss_res = l2norm(R, y, B);\n"
           "  ss_tot = sum((y - mean(y)) ^ 2);\n"
           "  n = nrow(A);\n"
           "  r2 = 1 - ss_res / ss_tot;\n"
           "  adjr2 = 1 - (1 - r2) * (n - 1) / (n - K - 1);\n"
           "  if (adjr2 > bestR2) { bestR2 = adjr2; }\n"
           "}\n"
           "result = bestR2;\n"});
  return suite;
}

std::string PagerankRequest(int64_t data_seed, int scale) {
  return "n = " + I(400 * scale) + ";\n"
         "G = rand(rows=n, cols=n, min=0.01, max=1, seed=" + I(data_seed) +
         ");\n"
         "G = G / max(colSums(G), 1e-12);\n"
         "S = G %*% t(G);\n"
         "S = S / max(colSums(S), 1e-12);\n"
         "p = matrix(1 / n, n, 1);\n"
         "e = matrix(1, n, 1);\n"
         "u = matrix(1 / n, 1, n);\n"
         "for (i in 1:15) {\n"
         "  p = 0.85 * (S %*% p) + 0.15 * (e %*% (u %*% p));\n"
         "  p = p / sum(p);\n"
         "}\n"
         "result = sum(p * seq(1, n, 1));\n"
         "print(\"pagerank \" + result);\n";
}

std::string KmeansRequest(int64_t data_seed, int scale) {
  const std::string rows = I(600 * scale);
  return "X = rbind(rand(rows=" + rows + ", cols=12, seed=" + I(data_seed) +
         ") + 5,\n"
         "          rand(rows=" + rows + ", cols=12, seed=" + I(data_seed + 1) +
         ") - 5,\n"
         "          rand(rows=" + rows + ", cols=12, seed=" + I(data_seed + 2) +
         "));\n"
         "result = 0;\n"
         "for (k in 2:4) {\n"
         "  [C, assign, wsse] = kmeans(X, k, 12, 99);\n"
         "  result = result + wsse;\n"
         "}\n"
         "print(\"kmeans \" + result);\n";
}

std::string GridsearchRequest(int64_t data_seed, int scale) {
  return "X = rand(rows=" + I(6000 * scale) + ", cols=30, min=-1, max=1, seed=" +
         I(data_seed) + ");\n"
         "y = X %*% rand(rows=30, cols=1, seed=" + I(data_seed + 1) + ");\n"
         "regs = 10 ^ (0 - seq(1, 6, 1));\n"
         "icpts = seq(0, 2, 1);\n"
         "tols = 10 ^ (0 - 7 - seq(1, 5, 1));\n"
         "losses = gridSearchLm(X, y, regs, icpts, tols);\n"
         "result = min(losses);\n"
         "print(\"gridsearch \" + result);\n";
}

}  // namespace perfbench
