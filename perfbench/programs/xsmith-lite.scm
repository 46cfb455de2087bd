;; A grammar-driven random program generator in the style of Xsmith: the
;; generator state (rng, depth limit, type context) is dynamically bound,
;; and node constructors are contracted.

(define rng-state (make-parameter 42))
(define max-depth (make-parameter 8))
(define hole-type (make-parameter 'int))

(define node/c (flat-contract 'node? pair?))

(define seed (box 42))
(define (next-rand!)
  (let ([s (modulo (+ (* (unbox seed) 25173) 13849) 65536)])
    (set-box! seed s)
    s))
(define (rand-below n) (modulo (next-rand!) n))

(define make-lit
  (contract-wrap (-> integer/c node/c)
    (lambda (v) (list 'lit v))
    'xsmith))

(define make-binop
  (contract-wrap (-> any/c any/c)
    (lambda (op) (lambda (a b) (list op a b)))
    'xsmith))

(define gen-expr
  (contract-wrap (-> integer/c node/c)
    (lambda (depth)
      (if (or (zero? depth) (zero? (rand-below 4)))
          (make-lit (rand-below 100))
          (parameterize ([max-depth depth])
            (let ([choice (rand-below 3)])
              (cond
                [(= choice 0) ((make-binop '+) (gen-expr (- depth 1))
                                               (gen-expr (- depth 1)))]
                [(= choice 1) ((make-binop '*) (gen-expr (- depth 1))
                                               (gen-expr (- depth 1)))]
                [else (list 'if (gen-expr (- depth 1))
                            (gen-expr (- depth 1))
                            (gen-expr (- depth 1)))])))))
    'xsmith))

(define (eval-node e)
  (case (car e)
    [(lit) (cadr e)]
    [(+) (+ (eval-node (cadr e)) (eval-node (caddr e)))]
    [(*) (modulo (* (eval-node (cadr e)) (eval-node (caddr e))) 65536)]
    [(if) (if (> (eval-node (cadr e)) 50)
              (eval-node (caddr e))
              (eval-node (cadddr e)))]))

(define (app-main n)
  (set-box! seed 42)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (loop (+ i 1)
              (modulo (+ acc (eval-node (gen-expr 6))) 1000003)))))
