package cas

import "syscall"

func ctime(st *syscall.Stat_t) *syscall.Timespec { return &st.Ctim }
