"""Golden outputs: every CLI data file hashes to a recorded digest.

The command set covers ``generate``, ``aggregate`` for every method under
two flag sets, ``metrics``, and three ``experiment`` runs over every method:
one with truncated searches, the same without per-attribute constraints,
and one whose cells end infeasible or stalled.
Commands run from the working directory with relative paths, because
``metrics.json`` records the scored file's path. Timing sidecars hold wall
times and are left out. A refactor that changes any output byte fails here.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from fairconsensus.cli import main

import helpers

METHODS = (
    "kemeny",
    "fair-kemeny",
    "borda",
    "fair-borda",
    "copeland",
    "fair-copeland",
    "schulze",
    "fair-schulze",
    "pick-fairest",
    "correct-pick",
    "kemeny-weighted",
)

SHARED = ["--candidates", "candidates.csv", "--rankings", "gen/rankings.csv"]
FLAG_SETS = {
    "a": ["--delta", "0.2", "--max-nodes", "3000"],
    "b": [
        "--delta", "0.3",
        "--delta-attr", "gender=0.15",
        "--delta-inter", "0.4",
        "--intersection", "race",
        "--max-nodes", "1500",
        "--no-pof",
    ],
}

EXPERIMENT = {
    "candidates": "candidates.csv",
    "methods": list(METHODS),
    "thetas": [0.4, 1.0],
    # listed loosest first: fair-kemeny still solves tightest first
    "deltas": ["0.3", "0.1"],
    "trials": 2,
    "num_rankings": 40,
    "seed": 3,
    "scenario": "low-fair",
    # truncates some searches, so the warm-start order shows in the outputs
    "max_nodes": 200,
}
# only the intersection is scored, so pick-fairest and kemeny-weighted,
# solved once per (theta, trial), order the base rankings by it alone
SCOPE_EXPERIMENT = {**EXPERIMENT, "attributes": "none"}
# three against one at a zero threshold: cells end infeasible or stalled
STATUS_EXPERIMENT = {
    "candidates": "team.csv",
    "modal": "team-modal.csv",
    "methods": list(METHODS),
    "thetas": [0.5],
    "deltas": ["0", "0.5"],
    "trials": 2,
    "num_rankings": 5,
    "seed": 1,
    "intersection": "none",
}


def run_commands(root: Path, monkeypatch) -> dict[str, str]:
    """Run the command set in ``root``; sha256 of every non-timing output."""
    monkeypatch.chdir(root)
    table = helpers.grid_table(12, 3, 2)
    with open("candidates.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["candidate_id", *table.attributes])
        for cid, row in zip(table.candidate_ids, table.values):
            writer.writerow([cid, *row])
    Path("config.json").write_text(json.dumps(EXPERIMENT))
    Path("scope.json").write_text(json.dumps(SCOPE_EXPERIMENT))
    Path("team.csv").write_text("candidate_id,team\na,g\nb,g\nc,g\nd,o\n")
    Path("team-modal.csv").write_text("a,b,c,d\n")
    Path("status.json").write_text(json.dumps(STATUS_EXPERIMENT))

    commands = [
        (
            "gen",
            [
                "generate", "--candidates", "candidates.csv",
                "--scenario", "low-fair", "--theta", "0.6",
                "--num-rankings", "40", "--seed", "11",
            ],
        )
    ]
    for tag, flags in FLAG_SETS.items():
        for method in METHODS:
            commands.append(
                (f"agg-{tag}-{method}", ["aggregate", "--method", method, *SHARED, *flags])
            )
    commands.append(
        (
            "metrics",
            [
                "metrics", *SHARED,
                "--score", "gen/modal.csv",
                "--score", "agg-a-fair-kemeny/consensus.csv",
                "--delta", "0.2",
            ],
        )
    )
    commands.append(("exp", ["experiment", "--config", "config.json"]))
    commands.append(("exp-scope", ["experiment", "--config", "scope.json"]))
    commands.append(("exp-status", ["experiment", "--config", "status.json"]))
    for out, argv in commands:
        assert main([*argv, "--out", out]) == 0, out

    digests = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and "/" in rel and path.name not in ("timing.json", "timings.csv"):
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


EXPECTED: dict[str, str] = {
    "agg-a-borda/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-a-borda/report.json": "69806f2bdeb902746b9cda7c2b838b4b507b4ad08fa379f8c0019f999935acd1",
    "agg-a-copeland/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-a-copeland/report.json": "87769a564c73c683038639eb0b98b0e1657ad0170cdc6a7632538f5fda777e06",
    "agg-a-correct-pick/consensus.csv": "78b84148e419d44db2f75e599b1033e814dec71e5e200bbdaf52619047b4919f",
    "agg-a-correct-pick/report.json": "0b724e0a1a823b8306d18fb3099b8c982a91f4bbd889ed2d95abd0f537ab56c5",
    "agg-a-fair-borda/consensus.csv": "ec8d2dc10dec695a6018e2a855de779107c8f333236ff554be77f80f9836e76e",
    "agg-a-fair-borda/report.json": "e89cce6e9bcd1cb694c1ecb1777d1aa4675bb3bf10620381ee028f65b87d90ac",
    "agg-a-fair-copeland/consensus.csv": "ec8d2dc10dec695a6018e2a855de779107c8f333236ff554be77f80f9836e76e",
    "agg-a-fair-copeland/report.json": "6be511d7e2d3158e2cc3b501643d04c73e569891d3a32854ee5096454fc1320d",
    "agg-a-fair-kemeny/consensus.csv": "36797b7e975c1728e52387a5026dba82928536d3652d32ce4f473ef24282e6b5",
    "agg-a-fair-kemeny/report.json": "fd29d232ce936ff77135f83f4dd721ab525bb749f46d1fa702add79ced2f4555",
    "agg-a-fair-schulze/consensus.csv": "ec8d2dc10dec695a6018e2a855de779107c8f333236ff554be77f80f9836e76e",
    "agg-a-fair-schulze/report.json": "c45d4aa356eeb329a85d842925ba0e695429b315f1b1aba422cff7e9d6cbf609",
    "agg-a-kemeny/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-a-kemeny/report.json": "a9cd59956e3524423c40365bbc01c2f57fb98406dbc2aeb7f965eb8a7f2ca2c7",
    "agg-a-kemeny-weighted/consensus.csv": "d181495486279f9ffa75b3559f3a7e5b5af58fa0ddaf508883f098518fbf4820",
    "agg-a-kemeny-weighted/report.json": "2a485225594e3b58243a8e3ea5fbce56957da13cf03b5eca0590d752c1a527bc",
    "agg-a-pick-fairest/consensus.csv": "3e3dcd5fbad5e382e2558ef0a92a43e78e8ed2fcbc0543ee727a9e324b23d655",
    "agg-a-pick-fairest/report.json": "5642fb68c0413bdf33ad570c0861f97a1e13ea19376a34f346567707d28ce6ed",
    "agg-a-schulze/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-a-schulze/report.json": "37fb204d37fa65be775e4913856c4562c86d19b7a92d99e56346264c97ffe8e5",
    "agg-b-borda/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-b-borda/report.json": "7d26148d0755c713781cd20ddcc9c7dbae89343d935303bcc9ad8a2f061db880",
    "agg-b-copeland/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-b-copeland/report.json": "d0c3eb2a33fff539dee1d9447d4d0f557c7687fcccfdfc06c84bff88caa94111",
    "agg-b-correct-pick/consensus.csv": "64fbea94c1b7c204466b8766e7717aa642ebee3770d978b0ce8b15016b7b763f",
    "agg-b-correct-pick/report.json": "b1c252242ceb21867102ff14cf009767863095ae1f58c88d6d11cb1e3d7e305d",
    "agg-b-fair-borda/consensus.csv": "b867121442fdacfef19f7a60fde9d580b2d9aadd78d8611d8563093c51173f3d",
    "agg-b-fair-borda/report.json": "9daa50be4e14a2b0e4c9473bd127aac40a6d461365eb92d0c20a4fdc9cbdccf6",
    "agg-b-fair-copeland/consensus.csv": "b867121442fdacfef19f7a60fde9d580b2d9aadd78d8611d8563093c51173f3d",
    "agg-b-fair-copeland/report.json": "d5cf3da912d76ca0b108f38612ef9f832d6fdacd8df1759a2f6bc536ac625b51",
    "agg-b-fair-kemeny/consensus.csv": "b867121442fdacfef19f7a60fde9d580b2d9aadd78d8611d8563093c51173f3d",
    "agg-b-fair-kemeny/report.json": "8c4b23fac73a899c05602cc0bacf64daceeaad96f728985e814e6215d8ab1d2c",
    "agg-b-fair-schulze/consensus.csv": "b867121442fdacfef19f7a60fde9d580b2d9aadd78d8611d8563093c51173f3d",
    "agg-b-fair-schulze/report.json": "0c992f426fd1b00d344a1ed8efbc080e0454cdeb4a0762ab1f811f3440766ca5",
    "agg-b-kemeny/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-b-kemeny/report.json": "506cfcf5a773573558339137a4e3ebc054759718d52ba723a746b7ecdd2dca88",
    "agg-b-kemeny-weighted/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-b-kemeny-weighted/report.json": "faaf56728107347014d4c9867aa63e794078e96435d53891f36cead3546895bb",
    "agg-b-pick-fairest/consensus.csv": "3e3dcd5fbad5e382e2558ef0a92a43e78e8ed2fcbc0543ee727a9e324b23d655",
    "agg-b-pick-fairest/report.json": "71ffb8d3e6905793a0cf9c5d92a6d8ad5cf54ba9d415a62a573cedfb7940d4b8",
    "agg-b-schulze/consensus.csv": "bfbfc8e738925565c5f5bb01b5f4a28d82982813444a3f3bfe7e90553b41d478",
    "agg-b-schulze/report.json": "2adcb5fe0eb06869f0b843d525d1bd722909487b6fad2b350cb7d4726ac2f079",
    "exp/modal.csv": "d181495486279f9ffa75b3559f3a7e5b5af58fa0ddaf508883f098518fbf4820",
    "exp/runs.csv": "075e83d41ead929b9b157798e9476c8e74223760e29b33e5c16a60966ec2e052",
    "exp/summary.csv": "223d8dd6228b4e6a076889d9cfc0bddf25e4b4a77e1686d6b974f9292e88ab3f",
    "exp-scope/modal.csv": "d181495486279f9ffa75b3559f3a7e5b5af58fa0ddaf508883f098518fbf4820",
    "exp-scope/runs.csv": "0adabbecddfe33631de76f905c46144aef9fb18c1b9319dd7e3b359bac0f9a63",
    "exp-scope/summary.csv": "75272b15b57518303b77c2b15bd2d06549bd90891c2f9d28f7f58ceb04cca4ff",
    "exp-status/modal.csv": "3a9a2e6c60381420a0591306dd22f31cdab41a73eae6268ded2c8c3914a5e419",
    "exp-status/runs.csv": "7e8b2c4f461447f7d693b23a414a1ec0e9527893d374a7f7e63ccd8335481577",
    "exp-status/summary.csv": "0e702dd5d2907672bbfa224b41a9fc57635533b3f61843197f332d7da1d8bbd7",
    "gen/modal.csv": "d181495486279f9ffa75b3559f3a7e5b5af58fa0ddaf508883f098518fbf4820",
    "gen/modal_report.json": "d3aac4429a08d91af4d143ece20f7623df161016db3941cd0cd3c3947d00dcc6",
    "gen/rankings.csv": "b50a6ad71dd7d4ee8ed7c46434aeea05b964a89143190a1d095258e150d28048",
    "metrics/metrics.csv": "531b98652d83d90b8c3ffa8ce5a9112434c3688ff2537e8e8c4b0d7d65a2f5d2",
    "metrics/metrics.json": "33a526e542664b6361ab479f65ee314ae56cef1236dfa810680550a41dd511e0",
}


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    assert run_commands(tmp_path, monkeypatch) == EXPECTED
