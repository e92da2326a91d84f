module ocas/benchmark

go 1.24

require ocas v0.0.0

replace ocas => ../
