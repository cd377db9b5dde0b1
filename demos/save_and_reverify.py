"""Round-trip a compiled circuit through the JSON interchange format.

Circuits are serialized in application order (first gate applied first),
so an external consumer can replay the file top to bottom: each entry of
"gates" is an index into "records", which holds each distinct gate record
once. A reloaded circuit carries enough information to be re-verified
from scratch.
"""

import json
import os
import tempfile

from cvexact.circuit_tools import deserialize, serialize_json
from cvexact.decompose import TargetGate, compile
from cvexact.verify import verify_symbolic

target = TargetGate.position({0: 4}, 0.3)
seq, report = compile(target)
print(f"compiled e^(0.3i X^4): {report.n_gates_nonfourier} non-Fourier gates")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "circuit.json")
    with open(path, "w") as fh:
        fh.write(serialize_json(seq))

    with open(path) as fh:
        doc = json.load(fh)
    print(f"schema version {doc['version']}, {len(doc['gates'])} gates on "
          f"disk, {len(doc['records'])} distinct records")
    print("first three gates as applied:")
    for i in doc["gates"][:3]:
        print("  ", doc["records"][i])

    with open(path) as fh:
        loaded = deserialize(fh.read())
residual = verify_symbolic(loaded, target.generator(), target.strength)
print(f"reloaded circuit symbolic residual: {residual:.3e}")
