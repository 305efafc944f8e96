"""Set-up probe: a fresh process imports ratrec and serves one request.

Reads {"kind", "args"} as JSON on stdin and prints {"setup_s", "kernel_s",
"answer"}; setup_s runs from just before `import ratrec` to the end of the
request.  Nothing ratrec uses is imported before the clock starts, not even
`json`.  kernel_s is the calibration kernel's time in this process right
after the request, for scaling setup_s to the reference machine speed.
"""

import sys
import time

import calls

text = sys.stdin.read()
start = time.perf_counter()
calls.load_ratrec()
import json  # noqa: E402  (ratrec.cli has loaded it by now)

spec = json.loads(text)
raw = calls.execute(spec["kind"], calls.prepare(spec["kind"], calls.from_wire(spec["args"])))
elapsed = time.perf_counter() - start

import calibrate  # noqa: E402

kernel_s = min(calibrate.kernel_time() for _ in range(3))
answer = calls.to_wire(calls.extract(spec["kind"], raw))
print(json.dumps({"setup_s": elapsed, "kernel_s": kernel_s, "answer": answer}))
