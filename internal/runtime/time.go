package runtime

import "github.com/rgbproto/rgb/internal/des"

// Time is monotonic protocol time in nanoseconds since the runtime's
// epoch: virtual kernel time in the simulator, wall-clock time since the
// engine shard started in a live runtime. It is the kernel's own type,
// because a live runtime's timers are kernel events too. The zero Time
// is the epoch.
type Time = des.Time

// MaxTime is the largest representable protocol time.
const MaxTime = des.MaxTime
