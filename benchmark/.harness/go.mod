module submitbench

go 1.22
