// Package other is outside locksafe's scope: nothing here may be flagged.
package other

import (
	"sync"
	"time"
)

var mu sync.Mutex

// SleepUnderLock blocks under a package-level mutex, which is fine outside
// the server package.
func SleepUnderLock() {
	mu.Lock()
	time.Sleep(time.Millisecond)
	mu.Unlock()
}
